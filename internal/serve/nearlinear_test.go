package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	v1 "repro/api/v1"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestSolveNearLinear: /v1/solve runs the near-linear grid solver — plain
// and sharded — threading the refine option through, and the server metrics
// record the solver's stage counters.
func TestSolveNearLinear(t *testing.T) {
	m := obs.NewMetrics()
	_, ts := newTestServer(t, serve.Config{Obs: m})
	const k = 3
	for _, body := range []string{
		fmt.Sprintf(`{"instance":%s,"radius":1.2,"k":%d,"solver":"nearlinear"}`, instanceJSON(60), k),
		fmt.Sprintf(`{"instance":%s,"radius":1.2,"k":%d,"solver":"nearlinear","options":{"refine":3,"seed":9}}`, instanceJSON(60), k),
		fmt.Sprintf(`{"instance":%s,"radius":1.2,"k":%d,"solver":"sharded(nearlinear)","options":{"shards":2}}`, instanceJSON(60), k),
	} {
		resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var out v1.SolveResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Centers) != k || out.Total <= 0 || out.Partial {
			t.Fatalf("centers=%d total=%v partial=%v (%s)", len(out.Centers), out.Total, out.Partial, data)
		}
	}
	snap := m.Snapshot()
	if snap.Counters[obs.CtrNLCells] == 0 {
		t.Error("server metrics recorded no near-linear grid cells")
	}
	if snap.Counters[obs.CtrNLCandidates] == 0 {
		t.Error("server metrics recorded no near-linear exact scores")
	}
}

// TestSolveNearLinearCacheSeparation: the refine option is result-affecting,
// so solves differing only in refine never share a cache entry — in either
// direction — while exact repeats still hit.
func TestSolveNearLinearCacheSeparation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	bodies := []string{
		fmt.Sprintf(`{"instance":%s,"radius":1.2,"k":2,"solver":"nearlinear"}`, instanceJSON(30)),
		fmt.Sprintf(`{"instance":%s,"radius":1.2,"k":2,"solver":"nearlinear","options":{"refine":3}}`, instanceJSON(30)),
		fmt.Sprintf(`{"instance":%s,"radius":1.2,"k":2,"solver":"nearlinear","options":{"refine":-1}}`, instanceJSON(30)),
	}
	for i, body := range bodies {
		if _, cached := postSolve(t, ts.URL, body); cached {
			t.Fatalf("request %d answered from cache — refine missing from the fingerprint", i)
		}
	}
	for i, body := range bodies {
		if _, cached := postSolve(t, ts.URL, body); !cached {
			t.Fatalf("repeat of request %d missed the cache", i)
		}
	}
}
