package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	v1 "repro/api/v1"
	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// stripVarying decodes a solve response and removes the two fields that
// legitimately differ between a fresh solve and a cached replay of it.
func stripVarying(t *testing.T, data []byte) (map[string]any, bool) {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("response does not decode: %v (%s)", err, data)
	}
	cached, _ := m["cached"].(bool)
	delete(m, "request_id")
	delete(m, "cached")
	return m, cached
}

func postSolve(t *testing.T, url, body string) ([]byte, bool) {
	t.Helper()
	resp, data := postJSON(t, url+"/v1/solve", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	_, cached := stripVarying(t, data)
	return data, cached
}

// TestSolveCacheHit: an identical repeat request is served from the cache
// with a bit-identical body (modulo request_id and the cached flag),
// including the original solve's round telemetry and wall time.
func TestSolveCacheHit(t *testing.T) {
	m := obs.NewMetrics()
	_, ts := newTestServer(t, serve.Config{Obs: m})
	body := fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":3,"solver":"greedy2"}`, instanceJSON(25))

	first, cached := postSolve(t, ts.URL, body)
	if cached {
		t.Fatal("first request claims cached")
	}
	second, cached := postSolve(t, ts.URL, body)
	if !cached {
		t.Fatal("identical repeat request not served from cache")
	}
	a, _ := stripVarying(t, first)
	b, _ := stripVarying(t, second)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("cached response differs from original:\n%v\n%v", a, b)
	}
	// The cached body carries the original solve's telemetry, not zeros.
	var out v1.SolveResponse
	if err := json.Unmarshal(second, &out); err != nil {
		t.Fatal(err)
	}
	if out.WallNS <= 0 || len(out.Rounds) != 3 {
		t.Errorf("cached response lost telemetry: wall_ns=%d rounds=%d", out.WallNS, len(out.Rounds))
	}
	if out.Partial {
		t.Error("cached response marked partial")
	}
	snap := m.Snapshot()
	if snap.Counters[obs.CtrCacheHits] != 1 || snap.Counters[obs.CtrCacheMisses] != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1",
			snap.Counters[obs.CtrCacheHits], snap.Counters[obs.CtrCacheMisses])
	}
}

// TestSolveCacheConcurrentIdentical: K concurrent identical requests cost
// exactly one solver run — asserted on the core round counter — and every
// client gets an identical response body.
func TestSolveCacheConcurrentIdentical(t *testing.T) {
	m := obs.NewMetrics()
	_, ts := newTestServer(t, serve.Config{Obs: m})
	const clients = 8
	const k = 3
	body := fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":%d,"solver":"greedy2"}`, instanceJSON(30), k)

	bodies := make([][]byte, clients)
	cachedFlags := make([]bool, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			bodies[i], cachedFlags[i] = data, false
			if _, cached := stripVarying(t, data); cached {
				cachedFlags[i] = true
			}
		}(i)
	}
	wg.Wait()

	// One solver run total: k rounds, not clients×k.
	snap := m.Snapshot()
	if rounds := snap.Counters[obs.CtrRounds]; rounds != k {
		t.Errorf("core.rounds = %d, want %d (exactly one solver run)", rounds, k)
	}
	fresh := 0
	for _, c := range cachedFlags {
		if !c {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("%d responses claim a fresh solve, want exactly 1", fresh)
	}
	want, _ := stripVarying(t, bodies[0])
	for i := 1; i < clients; i++ {
		got, _ := stripVarying(t, bodies[i])
		if !reflect.DeepEqual(want, got) {
			t.Errorf("client %d response differs from client 0", i)
		}
	}
	hits := snap.Counters[obs.CtrCacheHits]
	if hits != clients-1 {
		t.Errorf("cache.hits = %d, want %d", hits, clients-1)
	}
}

// TestSolveCacheEviction pins the byte budget end to end: a budget sized for
// one response evicts the older entry when a second distinct solve lands,
// and the evicted request misses on replay.
func TestSolveCacheEviction(t *testing.T) {
	bodyA := fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":1,"solver":"greedy3"}`, instanceJSON(5))
	bodyB := fmt.Sprintf(`{"instance":%s,"radius":2.5,"k":1,"solver":"greedy3"}`, instanceJSON(6))

	// Measure the stored entry size (the response minus its request id) on a
	// throwaway server, then budget for one entry but not two.
	_, ts0 := newTestServer(t, serve.Config{})
	first, _ := postSolve(t, ts0.URL, bodyA)
	var resp v1.SolveResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatal(err)
	}
	resp.RequestID = ""
	stored, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(len(stored)) + 400 // one entry + overhead, well under two

	m := obs.NewMetrics()
	_, ts := newTestServer(t, serve.Config{CacheBytes: budget, Obs: m})
	if _, cached := postSolve(t, ts.URL, bodyA); cached {
		t.Fatal("first A claims cached")
	}
	if _, cached := postSolve(t, ts.URL, bodyA); !cached {
		t.Fatal("repeat A not cached: budget too small for even one entry")
	}
	if _, cached := postSolve(t, ts.URL, bodyB); cached {
		t.Fatal("first B claims cached")
	}
	// B displaced A under the budget.
	if _, cached := postSolve(t, ts.URL, bodyA); cached {
		t.Error("A still cached after B should have evicted it")
	}
	if ev := m.Snapshot().Counters[obs.CtrCacheEvictions]; ev < 1 {
		t.Errorf("cache.evictions = %d, want >= 1", ev)
	}
}

// TestSolveCacheBypass: cache_control "bypass" forces a fresh solve and
// neither reads nor fills, and does not invalidate what is cached.
func TestSolveCacheBypass(t *testing.T) {
	m := obs.NewMetrics()
	_, ts := newTestServer(t, serve.Config{Obs: m})
	inst := instanceJSON(20)
	body := fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":2}`, inst)
	bypass := fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":2,"cache_control":"bypass"}`, inst)

	postSolve(t, ts.URL, body)
	if _, cached := postSolve(t, ts.URL, body); !cached {
		t.Fatal("warmup repeat not cached")
	}
	if _, cached := postSolve(t, ts.URL, bypass); cached {
		t.Error("bypass request served from cache")
	}
	if _, cached := postSolve(t, ts.URL, body); !cached {
		t.Error("bypass invalidated the cached entry")
	}
	snap := m.Snapshot()
	if snap.Counters[obs.CtrCacheBypass] != 1 {
		t.Errorf("cache.bypass = %d, want 1", snap.Counters[obs.CtrCacheBypass])
	}
}

// TestSolveCacheKeyCoversEveryField classifies every field of
// v1.SolveRequest and its Options. A result-affecting field comes with a
// sample value, and a request differing from the base in that field alone
// must not be answered from the base's cache entry. An excluded field comes
// with the reason it cannot change the result. A new field in neither list
// fails the test, so an option left out of the cache key cannot make two
// different requests share one entry.
func TestSolveCacheKeyCoversEveryField(t *testing.T) {
	other, err := decodeSet(instanceJSON(21))
	if err != nil {
		t.Fatal(err)
	}
	affecting := map[string]func(*v1.SolveRequest){
		"Instance":             func(r *v1.SolveRequest) { r.Instance = other },
		"Radius":               func(r *v1.SolveRequest) { r.Radius = 1.25 },
		"Norm":                 func(r *v1.SolveRequest) { r.Norm = "l1" },
		"Solver":               func(r *v1.SolveRequest) { r.Solver = "greedy3" },
		"K":                    func(r *v1.SolveRequest) { r.K = 2 },
		"Options.Seed":         func(r *v1.SolveRequest) { r.Options.Seed = 9 },
		"Options.WarmStart":    func(r *v1.SolveRequest) { r.Options.WarmStart = [][]float64{{1, 1}} },
		"Options.GridPer":      func(r *v1.SolveRequest) { r.Options.GridPer = 3 },
		"Options.BoxLo":        func(r *v1.SolveRequest) { r.Options.BoxLo = []float64{-1, 0} },
		"Options.BoxHi":        func(r *v1.SolveRequest) { r.Options.BoxHi = []float64{5, 4} },
		"Options.Polish":       func(r *v1.SolveRequest) { r.Options.Polish = true },
		"Options.DisablePrune": func(r *v1.SolveRequest) { r.Options.DisablePrune = true },
		"Options.Shards":       func(r *v1.SolveRequest) { r.Options.Shards = 2 },
		"Options.Halo":         func(r *v1.SolveRequest) { r.Options.Halo = -1 },
		"Options.Refine":       func(r *v1.SolveRequest) { r.Options.Refine = 3 },
	}
	excluded := map[string]string{
		"DeadlineMS":      "a deadline only decides whether a result is partial, and partial results are never cached",
		"CacheControl":    "it steers the cache itself: bypass neither reads nor fills an entry",
		"Options.Workers": "every solver is bit-identical across worker counts",
	}

	var fields []string
	rt := reflect.TypeOf(v1.SolveRequest{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Type != reflect.TypeOf(v1.SolveOptions{}) {
			fields = append(fields, f.Name)
			continue
		}
		for j := 0; j < f.Type.NumField(); j++ {
			fields = append(fields, f.Name+"."+f.Type.Field(j).Name)
		}
	}
	for _, name := range fields {
		_, a := affecting[name]
		_, x := excluded[name]
		if a == x {
			t.Errorf("field %s must be listed exactly once, as result-affecting or excluded", name)
		}
	}
	if n := len(affecting) + len(excluded); n != len(fields) {
		t.Errorf("%d names listed for %d fields: a listed name is not a field of v1.SolveRequest", n, len(fields))
	}

	inst, err := decodeSet(instanceJSON(20))
	if err != nil {
		t.Fatal(err)
	}
	base := v1.SolveRequest{
		Instance: inst, Radius: 1.5, K: 3, Solver: "greedy2",
		Options: v1.SolveOptions{BoxLo: []float64{0, 0}, BoxHi: []float64{4, 4}},
	}
	baseBody, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, serve.Config{})
	postSolve(t, ts.URL, string(baseBody))
	if _, cached := postSolve(t, ts.URL, string(baseBody)); !cached {
		t.Fatal("identical repeat of the base request not served from cache")
	}
	for _, name := range fields {
		mutate, ok := affecting[name]
		if !ok {
			continue
		}
		req := base
		mutate(&req)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) == string(baseBody) {
			t.Errorf("%s: the sample value equals the base request's", name)
			continue
		}
		if _, cached := postSolve(t, ts.URL, string(body)); cached {
			t.Errorf("%s: a request differing only in this field was served from cache", name)
		}
	}
}

// TestSolveCacheDefaultSpellings: the cache key reads the resolved request,
// so an option's default and its explicit spelling are answered from one
// entry, and a value that solves differently still misses.
func TestSolveCacheDefaultSpellings(t *testing.T) {
	inst := instanceJSON(20)
	cases := []struct {
		name, base, other string
		shared            bool
	}{
		{"refine 0 and 2", `"solver":"nearlinear"`, `"solver":"nearlinear","options":{"refine":2}`, true},
		{"halo 0 and 1", `"options":{"shards":2}`, `"options":{"shards":2,"halo":1}`, true},
		{"shards 0 and 1 on a plain name", `"solver":"greedy2-lazy"`, `"solver":"greedy2-lazy","options":{"shards":1}`, true},
		{"sharded name with shards 0 and 8", `"solver":"sharded(greedy2-lazy)"`, `"solver":"sharded(greedy2-lazy)","options":{"shards":8}`, true},
		{"refine 3", `"solver":"nearlinear"`, `"solver":"nearlinear","options":{"refine":3}`, false},
		{"halo -1", `"options":{"shards":2}`, `"options":{"shards":2,"halo":-1}`, false},
		{"shards 2", `"solver":"greedy2-lazy"`, `"solver":"greedy2-lazy","options":{"shards":2}`, false},
	}
	for _, tc := range cases {
		_, ts := newTestServer(t, serve.Config{})
		first, _ := postSolve(t, ts.URL, fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":3,%s}`, inst, tc.base))
		second, cached := postSolve(t, ts.URL, fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":3,%s}`, inst, tc.other))
		if cached != tc.shared {
			t.Errorf("%s: second request cached = %v, want %v", tc.name, cached, tc.shared)
		}
		if a, _ := stripVarying(t, first); tc.shared {
			if b, _ := stripVarying(t, second); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: the shared entry's answer differs:\n%s\n%s", tc.name, first, second)
			}
		}
	}
}

// TestSolveCacheDisabled: a negative CacheBytes turns the cache off; repeats
// solve fresh and never carry the cached flag.
func TestSolveCacheDisabled(t *testing.T) {
	m := obs.NewMetrics()
	_, ts := newTestServer(t, serve.Config{CacheBytes: -1, Obs: m})
	body := fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":2}`, instanceJSON(10))
	postSolve(t, ts.URL, body)
	if _, cached := postSolve(t, ts.URL, body); cached {
		t.Error("disabled cache served a hit")
	}
	snap := m.Snapshot()
	if snap.Counters[obs.CtrCacheHits]+snap.Counters[obs.CtrCacheMisses] != 0 {
		t.Error("disabled cache still counted lookups")
	}
}

// TestSolvePartialNeverCached: a deadline-bounded partial result must not
// enter the cache — the identical follow-up request solves again.
func TestSolvePartialNeverCached(t *testing.T) {
	m := obs.NewMetrics()
	_, ts := newTestServer(t, serve.Config{Obs: m})
	// test-slow commits one round per 15ms; 10 rounds under a 40ms deadline
	// is always cut short.
	body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":10,"solver":"test-slow","deadline_ms":40}`, instanceJSON(10))

	for i := 0; i < 2; i++ {
		_, data := postJSON(t, ts.URL+"/v1/solve", body, nil)
		var out v1.SolveResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("request %d: %v (%s)", i, err, data)
		}
		if !out.Partial {
			t.Fatalf("request %d: expected a partial result, got %d rounds", i, len(out.Rounds))
		}
		if out.Cached {
			t.Fatalf("request %d: partial result served from cache", i)
		}
	}
	snap := m.Snapshot()
	if snap.Counters[obs.CtrCacheHits] != 0 {
		t.Errorf("cache.hits = %d, want 0: partials must never be cached", snap.Counters[obs.CtrCacheHits])
	}
	if snap.Counters[obs.CtrCacheMisses] != 2 {
		t.Errorf("cache.misses = %d, want 2", snap.Counters[obs.CtrCacheMisses])
	}
}

// TestSolveCacheHitWithoutWorkerSlot: with a single worker wedged in a
// blocking solve, a cached request still answers immediately — the hit path
// does not take a worker slot.
func TestSolveCacheHitWithoutWorkerSlot(t *testing.T) {
	started, release := resetBlock()
	_, ts := newTestServer(t, serve.Config{Workers: 1})
	warm := fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":2}`, instanceJSON(15))
	blocker := fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"solver":"test-block"}`, instanceJSON(5))

	// Warm the cache while the worker is free.
	if _, cached := postSolve(t, ts.URL, warm); cached {
		t.Fatal("warmup claims cached")
	}

	// Wedge the only worker.
	blockDone := make(chan struct{})
	go func() {
		defer close(blockDone)
		postJSON(t, ts.URL+"/v1/solve", blocker, nil)
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("blocking solve never started")
	}

	// The cached request must answer without waiting for the slot.
	done := make(chan bool, 1)
	go func() {
		_, cached := postSolve(t, ts.URL, warm)
		done <- cached
	}()
	select {
	case cached := <-done:
		if !cached {
			t.Error("repeat request was not served from cache")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cache hit blocked behind the wedged worker")
	}

	close(release)
	<-blockDone
}

// TestCacheHitLatencyFloor: a cache hit skips the solver, so its client-side
// p50 must sit well under a miss's. Each of 9 fresh n = 600 instances
// (uniform in [0,4]², k = 4, r = 1, default solver) is sent twice: a miss,
// then a byte-identical hit. The hit path measures over 10x faster here;
// the 3x floor fails a change that drags hits back through the solve path
// without being flaky on a slow machine or under -race.
func TestCacheHitLatencyFloor(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	const pairs = 9
	rng := xrand.New(7)
	timed := func(body string) (time.Duration, bool) {
		start := time.Now()
		_, cached := postSolve(t, ts.URL, body)
		return time.Since(start), cached
	}
	var hits, misses []time.Duration
	for i := 0; i < pairs; i++ {
		set, err := pointset.GenUniform(600, pointset.PaperBox2D(), pointset.UnitWeight, rng)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(v1.SolveRequest{Instance: set, Radius: 1, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		miss, cached := timed(string(body))
		if cached {
			t.Fatalf("pair %d: a fresh instance was served from cache", i)
		}
		hit, cached := timed(string(body))
		if !cached {
			t.Fatalf("pair %d: the identical replay was not served from cache", i)
		}
		misses, hits = append(misses, miss), append(hits, hit)
	}
	p50 := func(d []time.Duration) time.Duration {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	hitP50, missP50 := p50(hits), p50(misses)
	t.Logf("hit p50 %v, miss p50 %v (%.1fx)", hitP50, missP50, float64(missP50)/float64(hitP50))
	if 3*hitP50 > missP50 {
		t.Errorf("cache hit p50 %v is not at most a third of the miss p50 %v", hitP50, missP50)
	}
}
