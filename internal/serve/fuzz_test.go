package serve_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	v1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/reward"
	"repro/internal/serve"
	"repro/internal/theory"
	"repro/internal/vec"
)

// wireCodes is every v1 error code a response may carry.
var wireCodes = map[string]bool{
	v1.CodeBadJSON: true, v1.CodeBodyTooLarge: true, v1.CodeBadInstance: true,
	v1.CodeDimMismatch: true, v1.CodeBadK: true, v1.CodeBadRadius: true,
	v1.CodeBadNorm: true, v1.CodeUnknownSolver: true, v1.CodeBadRequest: true,
	v1.CodeQueueFull: true, v1.CodeDeadlineQueued: true, v1.CodeDraining: true,
	v1.CodeMethodNotAllowed: true, v1.CodeSolveFailed: true,
}

// FuzzSolveHandler sends arbitrary bodies through the /v1/solve handler on
// the fuzzing goroutine, so a handler panic fails the target. A non-200
// answer must carry a v1 error code in its envelope; a 200 answer must hold
// at most k centers and a total equal to the objective recomputed from
// those centers. A complete, unsharded greedy2 or greedy2-lazy answer on
// at most 12 users with k <= 4 must keep 1−(1−1/k)^k of the best k users
// taken as centers, found by brute force. The 200 ms deadline cap keeps
// every input cheap: a solve cut short answers its valid partial prefix.
//
//	go test -run '^$' -fuzz FuzzSolveHandler -fuzztime 5m ./internal/serve
func FuzzSolveHandler(f *testing.F) {
	for _, tc := range solveErrorCases() {
		f.Add(tc.body)
	}
	f.Add(fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":3,"solver":"greedy2"}`, instanceJSON(25)))
	f.Add(fmt.Sprintf(`{"instance":%s,"radius":1.2,"k":2,"norm":"l1","options":{"shards":2}}`, instanceJSON(30)))
	f.Add(`{"instance":{"points":[[0,0],[0.5,0.2],[3,1],[3.4,1.3],[1,3],[2,2],[0.1,2.9]],"weights":[1,4,2,2,5,1,3]},"radius":1,"k":3,"norm":"linf","solver":"greedy2-lazy"}`)
	f.Add(fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":4,"solver":"greedy2","options":{"shards":1}}`, instanceJSON(12)))

	h := serve.New(serve.Config{MaxBody: 2048, MaxDeadline: 200 * time.Millisecond}).Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			var env v1.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || !wireCodes[env.Error.Code] {
				t.Fatalf("status %d without a v1 error code: %s", rec.Code, rec.Body.Bytes())
			}
			return
		}
		var out v1.SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("200 body does not decode: %v", err)
		}
		// The server accepted the body, so its first JSON value decodes.
		var req v1.SolveRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted request does not decode: %v", err)
		}
		if len(out.Centers) > req.K {
			t.Fatalf("%d centers for k = %d", len(out.Centers), req.K)
		}
		nm, err := norm.ByName(out.Norm)
		if err != nil {
			t.Fatal(err)
		}
		in, err := reward.NewInstance(req.Instance, nm, req.Radius)
		if err != nil {
			t.Fatal(err)
		}
		centers := make([]vec.V, len(out.Centers))
		for i, c := range out.Centers {
			centers[i] = c
		}
		if got := in.Objective(centers); math.Abs(got-out.Total) > core.SumTolerance {
			t.Fatalf("total %v, recomputed objective %v", out.Total, got)
		}
		if (out.Solver == "greedy2" || out.Solver == "greedy2-lazy") && !out.Partial &&
			req.Options.Shards <= 1 && in.N() <= 12 && req.K <= 4 {
			best := bestUsers(in, req.K)
			if bound := theory.Approx1(req.K) * best; out.Total < bound-core.SumTolerance {
				t.Fatalf("%s total %v below (1−(1−1/k)^k) × %v = %v, k = %d", out.Solver, out.Total, best, bound, req.K)
			}
		}
	})
}

// bestUsers is the largest objective of k of the instance's users taken
// as centers, over every k-subset.
func bestUsers(in *reward.Instance, k int) float64 {
	best := 0.0
	centers := make([]vec.V, k)
	var walk func(pos, from int)
	walk = func(pos, from int) {
		if pos == k {
			best = max(best, in.Objective(centers))
			return
		}
		for i := from; i < in.N(); i++ {
			centers[pos] = in.Set.Point(i)
			walk(pos+1, i+1)
		}
	}
	walk(0, 0)
	return best
}
