package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"testing"

	"repro/internal/clusterd"
	"repro/internal/obs"
	"repro/internal/serve"
)

// notStages are the names a served request records that are not stages: the
// request's root span and the two latency timers its end records, and the
// per-worker busy time of a parallel scan.
var notStages = map[string]bool{
	"request.solve":                true,
	obs.TimSrvRequest:              true,
	obs.SrvRouteRequestNS("solve"): true,
	obs.TimWorkerBusy:              true,
}

// TestStageNamesMatchTimers: a stage has one name. For every X_ns timer a
// served request adds to /metrics, the request's trace holds exactly as
// many span_end events named X, and for every span_end named X the timer
// X_ns gained exactly as many samples. It runs a sharded solve, a
// nearlinear solve, and a sharded solve forwarded to one in-process peer,
// each with an event sink on the server (and, as cdserved wires it, on the
// cluster), and each must run the handler's decode, fingerprint, instance
// and encode stages besides its own.
func TestStageNamesMatchTimers(t *testing.T) {
	inst := instanceJSON(200)
	// Every answered solve reads its body, keys it (the cache is on), builds
	// its instance and encodes its answer.
	handler := []string{obs.StageSrvDecode, obs.StageSrvFingerprint, obs.StageSrvInstance, obs.StageSrvEncode}
	cases := []struct {
		name, body string
		peer       bool
		want       []string // stages the request must run
	}{
		{"sharded", fmt.Sprintf(`{"instance":%s,"radius":1,"k":3,"solver":"sharded(greedy2-lazy)","options":{"shards":2}}`, inst), false,
			[]string{obs.StageSrvCache, obs.StageSrvQueue, obs.StageSrvSolve,
				obs.StageShardPartition, obs.StageShardSolve, obs.StageShardMerge, obs.StageRound}},
		{"nearlinear", fmt.Sprintf(`{"instance":%s,"radius":1,"k":3,"solver":"nearlinear"}`, inst), false,
			[]string{obs.StageSrvSolve, obs.StageNLSnap, obs.StageNLSeed, obs.StageNLRefine, obs.StageRound}},
		{"forwarded", fmt.Sprintf(`{"instance":%s,"radius":1,"k":3,"solver":"sharded(greedy2-lazy)","options":{"shards":2}}`, inst), true,
			[]string{obs.StageSrvSolve, obs.StageShardSolve, obs.StageClusterForward, obs.StageShardMerge, obs.StageRound}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink, read := capture(t)
			cfg := serve.Config{Obs: sink}
			tc.want = append(tc.want, handler...)
			if tc.peer {
				_, peer := newTestServer(t, serve.Config{})
				cl := clusterd.New(clusterd.Config{Advertise: "http://coordinator.test",
					Peers: []string{peer.URL}, Obs: sink})
				cl.GossipOnce(context.Background())
				cfg.Cluster = cl
			}
			srv, ts := newTestServer(t, cfg)
			before := srv.Metrics().Snapshot()
			id := "one-name-" + tc.name
			resp, data := postJSON(t, ts.URL+"/v1/solve", tc.body, map[string]string{"X-Request-ID": id})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			ts.Close() // waits for the handler to finish its telemetry
			after := srv.Metrics().Snapshot()

			samples := map[string]int{} // stage name → timer samples added
			for name, h := range after.TimersNS {
				if d := int(h.Count - before.TimersNS[name].Count); d > 0 && !notStages[name] {
					samples[name[:len(name)-len("_ns")]] = d
				}
			}
			ends := map[string]int{} // stage name → span_end events in the trace
			for _, e := range read() {
				if e.Type == obs.EvSpanEnd && e.Trace == id && !notStages[e.Name] {
					ends[e.Name]++
				}
			}
			for name, n := range samples {
				if ends[name] != n {
					t.Errorf("%s_ns gained %d samples, the trace holds %d span_end events named %s", name, n, ends[name], name)
				}
			}
			for name, n := range ends {
				if samples[name] != n {
					t.Errorf("the trace holds %d span_end events named %s, %s_ns gained %d samples", n, name, name, samples[name])
				}
			}
			for _, name := range tc.want {
				if ends[name] == 0 {
					names := make([]string, 0, len(ends))
					for n := range ends {
						names = append(names, n)
					}
					sort.Strings(names)
					t.Errorf("no %s stage in the trace (stages: %v)", name, names)
				}
			}
		})
	}
}
