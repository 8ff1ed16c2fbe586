package clusterd_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	v1 "repro/api/v1"
	"repro/internal/clusterd"
	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// node is one test cluster member: a full serving stack on an httptest
// listener.
type node struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startNode(t *testing.T, cfg serve.Config) *node {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &node{srv: s, ts: ts}
}

// testInstance builds a deterministic population large enough to partition
// into several non-trivial shards.
func testInstance(t *testing.T, n int) *pointset.Set {
	t.Helper()
	set, err := pointset.GenUniform(n, box2d(), pointset.RandomIntWeight, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func box2d() pointset.Box {
	return pointset.Box{Lo: []float64{0, 0}, Hi: []float64{4, 4}}
}

func solveReq(set *pointset.Set, shards int) *v1.SolveRequest {
	return &v1.SolveRequest{
		Instance: set,
		Radius:   0.5,
		Solver:   "greedy2-lazy",
		K:        6,
		Options:  v1.SolveOptions{Seed: 3, Shards: shards},
		// Bypass so repeated comparison solves in one test process never
		// short-circuit through a node's cache.
		CacheControl: v1.CacheControlBypass,
	}
}

func mustSolve(t *testing.T, url string, req *v1.SolveRequest) *v1.SolveResponse {
	t.Helper()
	resp, err := v1.NewClient(url, nil).Solve(context.Background(), req, "")
	if err != nil {
		t.Fatalf("solve against %s: %v", url, err)
	}
	if resp.Partial {
		t.Fatalf("solve against %s returned a partial result", url)
	}
	return resp
}

// TestClusterSolveBitIdentical pins the tentpole determinism claim: a sharded
// solve coordinated across a 3-node cluster returns bit-for-bit the centers,
// gains, and total a standalone node computes — routing must never leak into
// results.
func TestClusterSolveBitIdentical(t *testing.T) {
	set := testInstance(t, 2000)
	req := solveReq(set, 4)

	single := startNode(t, serve.Config{})
	want := mustSolve(t, single.ts.URL, req)

	// Three nodes; node 0 coordinates, 1 and 2 take forwarded shards.
	met := obs.NewMetrics()
	peer1 := startNode(t, serve.Config{})
	peer2 := startNode(t, serve.Config{})
	cl := clusterd.New(clusterd.Config{
		Advertise: "http://coordinator.test",
		Peers:     []string{peer1.ts.URL, peer2.ts.URL},
		Obs:       met,
	})
	cl.GossipOnce(context.Background())
	coord := startNode(t, serve.Config{Cluster: cl})

	got := mustSolve(t, coord.ts.URL, req)
	if !reflect.DeepEqual(got.Centers, want.Centers) {
		t.Errorf("cluster centers differ from single-node:\n got %v\nwant %v", got.Centers, want.Centers)
	}
	if !reflect.DeepEqual(got.Gains, want.Gains) || got.Total != want.Total {
		t.Errorf("cluster gains/total differ: got %v / %v, want %v / %v",
			got.Gains, got.Total, want.Gains, want.Total)
	}
	snap := met.Snapshot()
	if snap.Counters[obs.CtrClusterForwards] == 0 {
		t.Error("no shard solves were forwarded to peers")
	}
	if snap.Counters[obs.CtrClusterFallbacks] != 0 {
		t.Errorf("unexpected fallbacks: %d", snap.Counters[obs.CtrClusterFallbacks])
	}
}

// TestClusterFallback pins the failure path: when every peer fails mid-fan-out
// (one answers 503 to solves, one is dead), the coordinator falls back to
// local shard solves, still returns the bit-identical final centers, and
// counts the failures in cluster.fallbacks.
func TestClusterFallback(t *testing.T) {
	set := testInstance(t, 2000)
	req := solveReq(set, 4)

	single := startNode(t, serve.Config{})
	want := mustSolve(t, single.ts.URL, req)

	// A peer that gossips healthy but refuses every solve with 503 — a node
	// that saturated between the last gossip round and the forward.
	saturated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cluster/health" {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"draining":false,"workers":8,"in_flight":0,"queued":0,"queue_depth":64}`))
			return
		}
		http.Error(w, `{"error":{"code":"queue_full","message":"full"}}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(saturated.Close)

	// A peer that dies after gossip marked it live.
	dead := startNode(t, serve.Config{})

	met := obs.NewMetrics()
	cl := clusterd.New(clusterd.Config{
		Peers: []string{saturated.URL, dead.ts.URL},
		Obs:   met,
	})
	cl.GossipOnce(context.Background())
	dead.ts.Close() // dies between gossip and forward

	coord := startNode(t, serve.Config{Cluster: cl})
	got := mustSolve(t, coord.ts.URL, req)
	if !reflect.DeepEqual(got.Centers, want.Centers) || got.Total != want.Total {
		t.Errorf("fallback result differs from single-node:\n got %v (%v)\nwant %v (%v)",
			got.Centers, got.Total, want.Centers, want.Total)
	}
	snap := met.Snapshot()
	if snap.Counters[obs.CtrClusterFallbacks] == 0 {
		t.Error("expected cluster.fallbacks to count the failed forwards")
	}
	if snap.Counters[obs.CtrClusterForwards] != 0 {
		t.Errorf("no forward can succeed here, yet cluster.forwards = %d",
			snap.Counters[obs.CtrClusterForwards])
	}
}

// assertFallsBack runs req solves times through a coordinator whose one
// peer gossips healthy and answers every forward with forward, and returns
// the coordinator's cluster. Every solve must return want bit for bit, and
// no answer may be accepted. A refusing peer (queue_full or draining) leaves
// the rotation at its first refusal, so every part counts one fallback and
// only the first solve's concurrent picks reach it; any other fault costs
// one fallback per forward.
func assertFallsBack(t *testing.T, req *v1.SolveRequest, want *v1.SolveResponse, solves int, refuses bool, forward http.HandlerFunc) *clusterd.Cluster {
	t.Helper()
	var forwards atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cluster/health" {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"draining":false,"workers":8,"in_flight":0,"queued":0,"queue_depth":64}`))
			return
		}
		forwards.Add(1)
		forward(w, r)
	}))
	t.Cleanup(bad.Close)

	met := obs.NewMetrics()
	cl := clusterd.New(clusterd.Config{Peers: []string{bad.URL}, Obs: met})
	cl.GossipOnce(context.Background())
	coord := startNode(t, serve.Config{Cluster: cl})
	for i := 0; i < solves; i++ {
		got := mustSolve(t, coord.ts.URL, req)
		if !reflect.DeepEqual(got.Centers, want.Centers) || !reflect.DeepEqual(got.Gains, want.Gains) ||
			got.Total != want.Total {
			t.Errorf("solve %d: answer differs from the local solve:\n got %v (%v)\nwant %v (%v)",
				i, got.Centers, got.Total, want.Centers, want.Total)
		}
	}
	snap := met.Snapshot()
	n, fallbacks, shards := forwards.Load(), snap.Counters[obs.CtrClusterFallbacks], int64(req.Options.Shards)
	if refuses && (n < 1 || n > shards || fallbacks != int64(solves)*shards) {
		t.Errorf("%d forwards, %d fallbacks; want 1 to %d forwards and one fallback per part (%d)",
			n, fallbacks, shards, int64(solves)*shards)
	}
	if !refuses && (n == 0 || fallbacks != n) {
		t.Errorf("%d forwards, %d fallbacks; want one fallback per forward", n, fallbacks)
	}
	if got := snap.Counters[obs.CtrClusterForwards]; got != 0 {
		t.Errorf("%d bad answers accepted", got)
	}
	return cl
}

// TestClusterRejectsBadAnswers: a peer that gossips healthy but answers
// every forward with a corrupted copy of the true answer never reaches the
// merge. Each forward counts one fallback, the part is solved locally, and
// the coordinator returns the bit-identical local answer.
func TestClusterRejectsBadAnswers(t *testing.T) {
	set := testInstance(t, 2000)
	req := solveReq(set, 4)
	single := startNode(t, serve.Config{})
	want := mustSolve(t, single.ts.URL, req)
	honest := serve.New(serve.Config{}).Handler()

	centers := func(a map[string]any) []any { return a["centers"].([]any) }
	cases := []struct {
		name   string
		mutate func(a map[string]any)
	}{
		{"wrong dimension", func(a map[string]any) { centers(a)[0] = []any{1.0} }},
		{"null coordinate", func(a map[string]any) { centers(a)[0].([]any)[0] = nil }},
		{"far center, total kept", func(a map[string]any) { centers(a)[0] = []any{1e6, 1e6} }},
		{"k+1 centers", func(a map[string]any) { a["centers"] = append(centers(a), centers(a)[0]) }},
		{"no centers", func(a map[string]any) { a["centers"], a["gains"], a["total"] = []any{}, []any{}, 0.0 }},
		{"wrong n", func(a map[string]any) { a["n"] = a["n"].(float64) + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertFallsBack(t, req, want, 1, false, func(w http.ResponseWriter, r *http.Request) {
				rec := httptest.NewRecorder()
				honest.ServeHTTP(rec, r)
				var ans map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil || rec.Code != http.StatusOK {
					t.Errorf("honest solve: %d %v", rec.Code, err)
					return
				}
				tc.mutate(ans)
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(ans)
			})
		})
	}
}

// TestClusterTransportFaults is the transport half of the cluster fault
// matrix: a peer that gossips healthy, then refuses or garbles every
// forward, never changes the answer. Draining is the peer that began to
// drain between gossip and forward. A refusing peer (429 queue_full, 503
// draining) takes at most the first solve's concurrent forwards of three
// back-to-back solves, and a gossip sweep brings it back; any other fault
// costs one fallback per forward.
func TestClusterTransportFaults(t *testing.T) {
	set := testInstance(t, 2000)
	req := solveReq(set, 4)
	single := startNode(t, serve.Config{})
	want := mustSolve(t, single.ts.URL, req)
	honest := serve.New(serve.Config{}).Handler()

	refuse := func(status int, code string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(v1.ErrorResponse{Error: v1.Error{Code: code, Message: "refused"}})
		}
	}
	cases := []struct {
		name    string
		refuses bool
		forward http.HandlerFunc
	}{
		{"429 queue_full", true, refuse(http.StatusTooManyRequests, v1.CodeQueueFull)},
		{"500 solve_failed", false, refuse(http.StatusInternalServerError, v1.CodeSolveFailed)},
		{"503 draining", true, refuse(http.StatusServiceUnavailable, v1.CodeDraining)},
		{"200 cut off mid-JSON", false, func(w http.ResponseWriter, r *http.Request) {
			// The true answer's length is declared, half of it is sent,
			// and the connection closes: a peer that died mid-body.
			rec := httptest.NewRecorder()
			honest.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body[:len(body)/2])
		}},
		{"200 not JSON", false, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte("<html>502 Bad Gateway</html>"))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.refuses {
				assertFallsBack(t, req, want, 1, false, tc.forward)
				return
			}
			cl := assertFallsBack(t, req, want, 3, true, tc.forward)
			if cl.Snapshot()[0].Live {
				t.Error("the refusing peer is still live")
			}
			cl.GossipOnce(context.Background())
			if !cl.Snapshot()[0].Live {
				t.Error("a gossip sweep did not bring the peer back")
			}
		})
	}
}

// TestGossipLiveness pins the peer table's view transitions: never-probed →
// live → dead, with fails counting consecutive misses and AgeMS tracking the
// last success.
func TestGossipLiveness(t *testing.T) {
	peer := startNode(t, serve.Config{})
	cl := clusterd.New(clusterd.Config{Peers: []string{peer.ts.URL}})

	rows := cl.Snapshot()
	if len(rows) != 1 || rows[0].Live || rows[0].AgeMS != -1 {
		t.Fatalf("pre-gossip snapshot should be one never-probed row, got %+v", rows)
	}

	cl.GossipOnce(context.Background())
	rows = cl.Snapshot()
	if !rows[0].Live || rows[0].AgeMS < 0 || rows[0].Fails != 0 {
		t.Fatalf("after a successful probe, want live with age >= 0, got %+v", rows[0])
	}
	if rows[0].Workers <= 0 {
		t.Errorf("gossip did not carry the peer's worker count: %+v", rows[0])
	}

	peer.ts.Close()
	cl.GossipOnce(context.Background())
	cl.GossipOnce(context.Background())
	rows = cl.Snapshot()
	if rows[0].Live || rows[0].Fails != 2 {
		t.Fatalf("after two failed probes, want dead with fails=2, got %+v", rows[0])
	}
}

// TestGossipDrainingPeer: a draining peer answers health probes but must not
// be ranked live (it refuses forwarded work).
func TestGossipDrainingPeer(t *testing.T) {
	peer := startNode(t, serve.Config{})
	// Put the peer into drain; its mux still answers /v1/cluster/health.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := peer.srv.Drain(ctx, 0); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cl := clusterd.New(clusterd.Config{Peers: []string{peer.ts.URL}})
	cl.GossipOnce(context.Background())
	rows := cl.Snapshot()
	if rows[0].Live || !rows[0].Draining {
		t.Fatalf("draining peer must be not-live and marked draining, got %+v", rows[0])
	}
}

// TestNewFiltersSelfAndDuplicates: the peer table never contains the node
// itself, duplicates, or blanks, and is sorted by URL.
func TestNewFiltersSelfAndDuplicates(t *testing.T) {
	cl := clusterd.New(clusterd.Config{
		Advertise: "http://self:1/",
		Peers:     []string{"http://b:2", "http://self:1", "", "http://a:3/", "http://b:2/"},
	})
	rows := cl.Snapshot()
	if len(rows) != 2 || rows[0].URL != "http://a:3" || rows[1].URL != "http://b:2" {
		t.Fatalf("peer table should be [http://a:3 http://b:2], got %+v", rows)
	}
	if cl.NumPeers() != 2 || cl.Advertise() != "http://self:1" {
		t.Fatalf("NumPeers/Advertise wrong: %d, %q", cl.NumPeers(), cl.Advertise())
	}
}

// TestClusterHealthEndpoint: a cluster node's /v1/cluster/health carries its
// advertise URL and peer table; a standalone node answers with neither.
func TestClusterHealthEndpoint(t *testing.T) {
	peer := startNode(t, serve.Config{})
	cl := clusterd.New(clusterd.Config{
		Advertise: "http://me.test",
		Peers:     []string{peer.ts.URL},
	})
	cl.GossipOnce(context.Background())
	nodeA := startNode(t, serve.Config{Cluster: cl, Workers: 3})

	h, err := v1.NewClient(nodeA.ts.URL, nil).ClusterHealth(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Advertise != "http://me.test" || h.Workers != 3 || len(h.Peers) != 1 {
		t.Fatalf("cluster health wrong: %+v", h)
	}
	if !h.Peers[0].Live {
		t.Fatalf("peer should be live: %+v", h.Peers[0])
	}

	standalone := startNode(t, serve.Config{})
	h, err = v1.NewClient(standalone.ts.URL, nil).ClusterHealth(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Advertise != "" || len(h.Peers) != 0 {
		t.Fatalf("standalone cluster health should be bare: %+v", h)
	}
}

// TestStartStop: the gossip loop probes on its own and shuts down cleanly.
func TestStartStop(t *testing.T) {
	peer := startNode(t, serve.Config{})
	cl := clusterd.New(clusterd.Config{
		Peers:       []string{peer.ts.URL},
		GossipEvery: 5 * time.Millisecond,
	})
	cl.Start()
	defer cl.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if rows := cl.Snapshot(); rows[0].Live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gossip loop never marked the peer live")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cl.Stop() // idempotent
}
