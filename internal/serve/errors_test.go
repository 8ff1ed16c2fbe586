package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	v1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/reward"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/vec"
)

// decodeError parses the machine-readable error envelope every non-2xx v1
// response must carry.
func decodeError(t *testing.T, data []byte) v1.Error {
	t.Helper()
	var out v1.ErrorResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("non-2xx body is not an error envelope: %v (%s)", err, data)
	}
	if out.Error.Code == "" || out.Error.Message == "" {
		t.Fatalf("error envelope missing code or message: %s", data)
	}
	return out.Error
}

// errorCase is a malformed request body with the status and error code it
// must be answered with.
type errorCase struct {
	name, body string
	status     int
	code       string
}

// solveErrorCases are the /v1/solve error contract, for a server whose
// MaxBody is 2048. FuzzSolveHandler seeds its corpus with these bodies.
func solveErrorCases() []errorCase {
	good := instanceJSON(5)
	return []errorCase{
		{"malformed json", `{"instance": nope`, http.StatusBadRequest, v1.CodeBadJSON},
		{"unknown field", fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"bogus":true}`, good),
			http.StatusBadRequest, v1.CodeBadJSON},
		{"not an object", `[1,2,3]`, http.StatusBadRequest, v1.CodeBadJSON},
		{"unknown field naming the pointset package", `{"pointset:":1}`, http.StatusBadRequest, v1.CodeBadJSON},
		{"unknown solver", fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"solver":"greedy9"}`, good),
			http.StatusBadRequest, v1.CodeUnknownSolver},
		{"zero k", fmt.Sprintf(`{"instance":%s,"radius":1,"k":0}`, good),
			http.StatusBadRequest, v1.CodeBadK},
		{"negative k", fmt.Sprintf(`{"instance":%s,"radius":1,"k":-3}`, good),
			http.StatusBadRequest, v1.CodeBadK},
		{"k above user count", `{"instance":{"points":[[0,0]]},"radius":1,"k":200000}`,
			http.StatusBadRequest, v1.CodeBadK},
		{"zero radius", fmt.Sprintf(`{"instance":%s,"radius":0,"k":1}`, good),
			http.StatusBadRequest, v1.CodeBadRadius},
		{"bad norm", fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"norm":"l7"}`, good),
			http.StatusBadRequest, v1.CodeBadNorm},
		{"missing instance", `{"radius":1,"k":1}`, http.StatusBadRequest, v1.CodeBadInstance},
		{"empty instance", `{"instance":{"points":[]},"radius":1,"k":1}`,
			http.StatusBadRequest, v1.CodeBadInstance},
		{"non-finite coordinate", `{"instance":{"points":[[1e999,0]]},"radius":1,"k":1}`,
			http.StatusBadRequest, v1.CodeBadInstance},
		{"non-finite weight", `{"instance":{"points":[[0,0]],"weights":[1e999]},"radius":1,"k":1}`,
			http.StatusBadRequest, v1.CodeBadInstance},
		{"negative weight", `{"instance":{"points":[[0,0]],"weights":[-1]},"radius":1,"k":1}`,
			http.StatusBadRequest, v1.CodeBadInstance},
		// Finite weights whose sum, max_reward, is +Inf, which JSON
		// cannot carry.
		{"weights summing past float64", `{"instance":{"points":[[0,0],[1,1]],"weights":[1e308,1e308]},"radius":1,"k":1}`,
			http.StatusBadRequest, v1.CodeBadInstance},
		{"weight count mismatch", `{"instance":{"points":[[0,0]],"weights":[1,2]},"radius":1,"k":1}`,
			http.StatusBadRequest, v1.CodeBadInstance},
		{"empty point row", `{"instance":{"points":[[]]},"radius":1,"k":1}`,
			http.StatusBadRequest, v1.CodeBadInstance},
		// JSON.stringify writes NaN and ±Infinity as null, which must not
		// become a coordinate or weight of 0.
		{"null coordinate", `{"instance":{"points":[[null,1],[2,2]]},"radius":1,"k":1}`,
			http.StatusBadRequest, v1.CodeBadInstance},
		{"null weight", `{"instance":{"points":[[0,0],[1,1]],"weights":[null,3]},"radius":1,"k":1}`,
			http.StatusBadRequest, v1.CodeBadInstance},
		{"bad cache_control", fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"cache_control":"refresh"}`, good),
			http.StatusBadRequest, v1.CodeBadRequest},
		{"negative shards", fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"options":{"shards":-2}}`, good),
			http.StatusBadRequest, v1.CodeBadRequest},
		{"below-range halo", fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"options":{"shards":2,"halo":-2}}`, good),
			http.StatusBadRequest, v1.CodeBadRequest},
		{"unknown sharded inner", fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"solver":"sharded(greedy9)"}`, good),
			http.StatusBadRequest, v1.CodeUnknownSolver},
		{"mixed instance dims", `{"instance":{"points":[[0,0],[1]]},"radius":1,"k":1}`,
			http.StatusBadRequest, v1.CodeDimMismatch},
		{"dim contradicts rows", `{"instance":{"dim":3,"points":[[0,0]]},"radius":1,"k":1}`,
			http.StatusBadRequest, v1.CodeDimMismatch},
		{"warm start dim mismatch",
			fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"options":{"warm_start":[[1,2,3]]}}`, good),
			http.StatusBadRequest, v1.CodeDimMismatch},
		{"box dim mismatch",
			fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"options":{"box_lo":[0],"box_hi":[1]}}`, good),
			http.StatusBadRequest, v1.CodeDimMismatch},
		{"oversized body",
			fmt.Sprintf(`{"instance":%s,"radius":1,"k":1}`, instanceJSON(2000)),
			http.StatusRequestEntityTooLarge, v1.CodeBodyTooLarge},
		// Unbounded, grid_per^dim overflows int inside pointset.GridPoints
		// and the handler panics.
		{"grid_per lattice above MaxCells",
			`{"instance":{"dim":2,"points":[[0,0],[1,1],[2,2]]},"radius":1,"k":1,"solver":"exhaustive","options":{"grid_per":1073741824}}`,
			http.StatusBadRequest, v1.CodeBadRequest},
		// Unbounded, this 4-user body holds a worker for seconds past its
		// 100 ms deadline: the partition's (2·halo+1)^dim neighbour walk
		// cannot be cancelled.
		{"halo walk above MaxCells",
			`{"instance":{"dim":2,"points":[[0,0],[1,1],[2,2],[3,3]]},"radius":1,"k":1,"deadline_ms":100,"options":{"shards":2,"halo":600}}`,
			http.StatusBadRequest, v1.CodeBadRequest},
		// About 585 years: as a time.Duration it wraps to 448 µs.
		{"deadline past a Duration", fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"deadline_ms":18446744073710}`, good),
			http.StatusBadRequest, v1.CodeBadRequest},
		{"negative deadline", fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"deadline_ms":-1}`, good),
			http.StatusBadRequest, v1.CodeBadRequest},
	}
}

// TestSolveErrorPaths pins the wire-schema error contract: every malformed
// request answers with the right status and a machine-readable code, with
// the result cache on and off.
func TestSolveErrorPaths(t *testing.T) {
	for _, cacheBytes := range []int64{0, -1} {
		_, ts := newTestServer(t, serve.Config{MaxBody: 2048, CacheBytes: cacheBytes})
		for _, tc := range solveErrorCases() {
			name := tc.name
			if cacheBytes < 0 {
				name += " cache off"
			}
			t.Run(name, func(t *testing.T) {
				resp, data := postJSON(t, ts.URL+"/v1/solve", tc.body, nil)
				if resp.StatusCode != tc.status {
					t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, data)
				}
				if e := decodeError(t, data); e.Code != tc.code {
					t.Errorf("code %q, want %q (message %q)", e.Code, tc.code, e.Message)
				}
			})
		}
	}
}

// TestSolveUnknownSolverListsCatalog: the 400 message is the same sorted
// catalog text cdgreedy -alg prints — one registry, one answer.
func TestSolveUnknownSolverListsCatalog(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"solver":"greedy9"}`, instanceJSON(3))
	_, data := postJSON(t, ts.URL+"/v1/solve", body, nil)
	e := decodeError(t, data)
	want := solver.CatalogError("solver", "algorithm", "greedy9", solver.Names()).Error()
	if e.Message != want {
		t.Errorf("message %q\nwant      %q", e.Message, want)
	}
	if !strings.Contains(e.Message, "greedy2 | ") {
		t.Errorf("catalog not sorted/pipe-joined: %q", e.Message)
	}
}

// TestSolveNonFiniteResult: users at x = ±1e308 are finite, but their L2
// distance is NaN and their bounding box is wider than float64. A finite
// instance deserves a finite answer: every registry solver and a sharded
// one, with the cache on and off, must answer a 200 whose total is finite
// and equals the objective of its centers (random and greedy1 draw from
// that box).
func TestSolveNonFiniteResult(t *testing.T) {
	const inst = `{"dim":2,"points":[[1e308,0],[-1e308,0],[0,0]]}`
	set, err := decodeSet(inst)
	if err != nil {
		t.Fatal(err)
	}
	in, err := reward.NewInstance(set, norm.L2{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, name := range solver.Names() {
		if !strings.HasPrefix(name, "test-") { // this package's stub solvers
			names = append(names, name)
		}
	}
	names = append(names, "sharded(greedy2-lazy)")
	for _, cacheBytes := range []int64{0, -1} {
		_, ts := newTestServer(t, serve.Config{CacheBytes: cacheBytes})
		for _, name := range names {
			label := fmt.Sprintf("%s cache=%v", name, cacheBytes == 0)
			body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":2,"solver":%q}`, inst, name)
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("%s: %v", label, err)
				continue
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("%s: reading the body: %v", label, err)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", label, resp.StatusCode, data)
				continue
			}
			var out v1.SolveResponse
			if err := json.Unmarshal(data, &out); err != nil {
				t.Errorf("%s: 200 body %q does not decode: %v", label, data, err)
				continue
			}
			centers := make([]vec.V, len(out.Centers))
			for i, c := range out.Centers {
				centers[i] = c
			}
			if got := in.Objective(centers); math.IsNaN(out.Total) || math.IsInf(out.Total, 0) || math.Abs(got-out.Total) > core.SumTolerance {
				t.Errorf("%s: total %v, objective of its centers %v", label, out.Total, got)
			}
		}
	}
}

// TestChurnOverflowingBox: the churn loop draws arrivals from the users'
// bounding box, so on users at x = ±1e308 (a box wider than float64) every
// arrival must still be finite and the stream must end in a summary line.
func TestChurnOverflowingBox(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	for _, name := range []string{"greedy2", "greedy1", "random"} {
		body := fmt.Sprintf(`{"instance":{"dim":2,"points":[[1e308,0],[-1e308,0],[0,0]]},"radius":1,"k":2,`+
			`"periods":4,"arrival_rate":3,"depart_rate":1,"seed":5,"solver":%q}`, name)
		resp, data := postJSON(t, ts.URL+"/v1/churn", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, data)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var last v1.ChurnLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: bad ndjson line %q: %v", name, lines[len(lines)-1], err)
		}
		if last.Summary == nil || last.Summary.Periods != 4 || last.Summary.TotalArrivals == 0 {
			t.Errorf("%s: stream ends in %s, want a 4-period summary with arrivals", name, lines[len(lines)-1])
		}
	}
}

// TestChurnErrorPaths: the churn endpoint shares the same error contract.
func TestChurnErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	good := instanceJSON(5)
	cases := []errorCase{
		{"zero periods",
			fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"periods":0,"arrival_rate":1,"depart_rate":1}`, good),
			http.StatusBadRequest, v1.CodeBadRequest},
		{"bad index",
			fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"periods":2,"arrival_rate":1,"depart_rate":1,"index":"quadtree"}`, good),
			http.StatusBadRequest, v1.CodeBadRequest},
		{"kdtree index",
			fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"periods":2,"arrival_rate":1,"depart_rate":1,"index":"kdtree"}`, good),
			http.StatusBadRequest, v1.CodeBadRequest},
		{"negative arrival rate",
			fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"periods":2,"arrival_rate":-1,"depart_rate":1}`, good),
			http.StatusBadRequest, v1.CodeBadRequest},
		{"unknown solver",
			fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"periods":2,"arrival_rate":1,"depart_rate":1,"solver":"nope"}`, good),
			http.StatusBadRequest, v1.CodeUnknownSolver},
		{"zero k",
			fmt.Sprintf(`{"instance":%s,"radius":1,"k":0,"periods":2,"arrival_rate":1,"depart_rate":1}`, good),
			http.StatusBadRequest, v1.CodeBadK},
		{"k above user count",
			fmt.Sprintf(`{"instance":%s,"radius":1,"k":6,"periods":2,"arrival_rate":1,"depart_rate":1}`, good),
			http.StatusBadRequest, v1.CodeBadK},
		{"weights summing past float64",
			`{"instance":{"points":[[0,0],[1,1]],"weights":[1e308,1e308]},"radius":1,"k":1,"periods":2,"arrival_rate":1,"depart_rate":1}`,
			http.StatusBadRequest, v1.CodeBadInstance},
		{"deadline past a Duration",
			fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"periods":2,"arrival_rate":1,"depart_rate":1,"deadline_ms":18446744073710}`, good),
			http.StatusBadRequest, v1.CodeBadRequest},
		{"negative deadline",
			fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"periods":2,"arrival_rate":1,"depart_rate":1,"deadline_ms":-1}`, good),
			http.StatusBadRequest, v1.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/churn", tc.body, nil)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, data)
			}
			if e := decodeError(t, data); e.Code != tc.code {
				t.Errorf("code %q, want %q (message %q)", e.Code, tc.code, e.Message)
			}
		})
	}
}

// TestMethodNotAllowed: wrong verbs answer 405 with the JSON error envelope
// and an Allow header, on every v1 endpoint.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	cases := []struct{ method, path, allow string }{
		{http.MethodGet, "/v1/solve", http.MethodPost},
		{http.MethodGet, "/v1/churn", http.MethodPost},
		{http.MethodPost, "/v1/solvers", http.MethodGet},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out v1.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed || out.Error.Code != v1.CodeMethodNotAllowed {
			t.Errorf("%s %s: status %d code %q", tc.method, tc.path, resp.StatusCode, out.Error.Code)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
}
