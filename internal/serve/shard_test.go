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

// TestSolveSharded: /v1/solve accepts both sharding surfaces — the
// composite solver name and the shards option — runs the
// partition → shard-solve → merge pipeline, and reports the merge's rounds
// as the response rounds.
func TestSolveSharded(t *testing.T) {
	m := obs.NewMetrics()
	_, ts := newTestServer(t, serve.Config{Obs: m})
	const k = 3
	for _, body := range []string{
		fmt.Sprintf(`{"instance":%s,"radius":1.2,"k":%d,"solver":"sharded(greedy2-lazy)"}`, instanceJSON(40), k),
		fmt.Sprintf(`{"instance":%s,"radius":1.2,"k":%d,"solver":"greedy2","options":{"shards":3}}`, instanceJSON(40), k),
	} {
		resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var out v1.SolveResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Centers) != k || len(out.Rounds) != k {
			t.Fatalf("got %d centers, %d rounds, want %d each (%s)", len(out.Centers), len(out.Rounds), k, data)
		}
		if out.Total <= 0 || out.Partial {
			t.Errorf("total = %v partial = %v", out.Total, out.Partial)
		}
		for _, r := range out.Rounds {
			if r.WallNS <= 0 {
				t.Errorf("round %d has no wall time — the merge recorded no RoundNS", r.Round)
			}
		}
	}
	snap := m.Snapshot()
	if snap.Counters[obs.CtrShardParts] == 0 {
		t.Error("server metrics recorded no shard partitions")
	}
	if snap.Counters[obs.CtrShardSolves] == 0 {
		t.Error("server metrics recorded no shard solves")
	}
}

// TestSolveShardedCacheSeparation: the shards and halo options are part of
// the solve fingerprint, so sharded and unsharded requests (and different
// shard geometries) never share a cache entry in either direction.
func TestSolveShardedCacheSeparation(t *testing.T) {
	m := obs.NewMetrics()
	_, ts := newTestServer(t, serve.Config{Obs: m})
	bodies := []string{
		fmt.Sprintf(`{"instance":%s,"radius":1.2,"k":2,"solver":"greedy2"}`, instanceJSON(30)),
		fmt.Sprintf(`{"instance":%s,"radius":1.2,"k":2,"solver":"greedy2","options":{"shards":2}}`, instanceJSON(30)),
		fmt.Sprintf(`{"instance":%s,"radius":1.2,"k":2,"solver":"greedy2","options":{"shards":4}}`, instanceJSON(30)),
		fmt.Sprintf(`{"instance":%s,"radius":1.2,"k":2,"solver":"greedy2","options":{"shards":4,"halo":-1}}`, instanceJSON(30)),
	}
	for i, body := range bodies {
		if _, cached := postSolve(t, ts.URL, body); cached {
			t.Fatalf("request %d answered from cache — shards/halo missing from the fingerprint", i)
		}
	}
	// Exact repeats do hit: the separation above is by parameters, not luck.
	for i, body := range bodies {
		if _, cached := postSolve(t, ts.URL, body); !cached {
			t.Fatalf("repeat of request %d missed the cache", i)
		}
	}
	snap := m.Snapshot()
	if snap.Counters[obs.CtrCacheMisses] != int64(len(bodies)) || snap.Counters[obs.CtrCacheHits] != int64(len(bodies)) {
		t.Errorf("misses/hits = %d/%d, want %d/%d", snap.Counters[obs.CtrCacheMisses],
			snap.Counters[obs.CtrCacheHits], len(bodies), len(bodies))
	}
}
