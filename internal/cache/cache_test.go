package cache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/vec"
)

func mustSet(t testing.TB, rows [][]float64, weights []float64) *pointset.Set {
	t.Helper()
	pts := make([]vec.V, len(rows))
	for i, r := range rows {
		pts[i] = vec.V(r)
	}
	if weights == nil {
		weights = make([]float64, len(rows))
		for i := range weights {
			weights[i] = 1
		}
	}
	s, err := pointset.New(pts, weights)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func baseParams() SolveParams {
	return SolveParams{Norm: "l2", Radius: 1.5, K: 3, Solver: "greedy2", Seed: 7}
}

// TestFingerprintPinned pins two keys' bytes, so that any change to the
// hashed byte stream (the fields, their order or their encoding) fails
// here until fpVersion is bumped and the keys are updated with it: a small
// instance with every parameter set, and a 1,000-user one whose sections
// span several of the hasher's blocks.
func TestFingerprintPinned(t *testing.T) {
	p := SolveParams{Norm: "linf", Radius: 0.75, K: 2, Solver: "sharded(greedy2-lazy)", Seed: 42,
		GridPer: 5, BoxLo: []float64{-1, -1}, BoxHi: []float64{3, 4}, Polish: true, DisablePrune: true,
		WarmStart: [][]float64{{0.5, 0.5}, {2, 2}}, Shards: 4, Halo: 2, Refine: 3}
	small := mustSet(t, [][]float64{{0, -0.5}, {1.25, 3}, {2, 1e-300}}, []float64{1, 2.5, 0})
	rows := make([][]float64, 1000)
	ws := make([]float64, len(rows))
	for i := range rows {
		rows[i] = []float64{float64(i%40) / 3, float64(i/40) * 1.5}
		ws[i] = float64(i%5 + 1)
	}
	large := mustSet(t, rows, ws)
	for _, c := range []struct {
		name string
		key  Key
		want string
	}{
		{"small", Fingerprint(small, p), "caab1791a33c4da0cddff93e3b0fd29cfa958196fc63c08b6ec9d189245e5d88"},
		{"zero params", Fingerprint(small, SolveParams{}), "c0cf6232244afbe41ba5dc41a71ca689143b0958b8480cfa5252d4f9ef0dfac4"},
		{"1,000 users", Fingerprint(large, p), "2dfc664b006e0a9ec22dac294211d9c97c95a7b1003065a3f533eee62edcc6fe"},
	} {
		if got := fmt.Sprintf("%x", c.key); got != c.want {
			t.Errorf("%s: key %s, want %s (%s)", c.name, got, c.want, fpVersion)
		}
	}
}

// TestFingerprintSensitivity: every result-affecting input changes the key,
// and the excluded inputs (none are fields of SolveParams, so the test
// mutates the instance and each field in turn) do so independently.
func TestFingerprintSensitivity(t *testing.T) {
	set := mustSet(t, [][]float64{{0, 0}, {1, 2}, {3, 1}}, []float64{1, 2, 3})
	base := Fingerprint(set, baseParams())

	if got := Fingerprint(set, baseParams()); got != base {
		t.Fatal("fingerprint is not deterministic")
	}

	mutations := map[string]func() Key{
		"coords": func() Key {
			s := mustSet(t, [][]float64{{0, 0}, {1, 2}, {3, 1.000001}}, []float64{1, 2, 3})
			return Fingerprint(s, baseParams())
		},
		"weights": func() Key {
			s := mustSet(t, [][]float64{{0, 0}, {1, 2}, {3, 1}}, []float64{1, 2, 4})
			return Fingerprint(s, baseParams())
		},
		"dim-vs-flat": func() Key {
			// Same flat coords [0,0,1,2,3,1], different dim: 3 points in
			// 2-D vs 2 points in 3-D. Weight count differs too, so pick
			// unit weights for both; the dim section must still split them.
			s := mustSet(t, [][]float64{{0, 0, 1}, {2, 3, 1}}, nil)
			u := mustSet(t, [][]float64{{0, 0}, {1, 2}, {3, 1}}, nil)
			a, b := Fingerprint(s, baseParams()), Fingerprint(u, baseParams())
			if a == b {
				t.Error("dim not separated from flat coords")
			}
			return base // not compared against base
		},
		"norm":    func() Key { p := baseParams(); p.Norm = "l1"; return Fingerprint(set, p) },
		"radius":  func() Key { p := baseParams(); p.Radius = 1.25; return Fingerprint(set, p) },
		"k":       func() Key { p := baseParams(); p.K = 4; return Fingerprint(set, p) },
		"solver":  func() Key { p := baseParams(); p.Solver = "greedy3"; return Fingerprint(set, p) },
		"seed":    func() Key { p := baseParams(); p.Seed = 8; return Fingerprint(set, p) },
		"gridper": func() Key { p := baseParams(); p.GridPer = 5; return Fingerprint(set, p) },
		"box": func() Key {
			p := baseParams()
			p.BoxLo, p.BoxHi = []float64{0, 0}, []float64{4, 4}
			return Fingerprint(set, p)
		},
		"polish": func() Key { p := baseParams(); p.Polish = true; return Fingerprint(set, p) },
		"prune":  func() Key { p := baseParams(); p.DisablePrune = true; return Fingerprint(set, p) },
		"shards": func() Key { p := baseParams(); p.Shards = 8; return Fingerprint(set, p) },
		"halo":   func() Key { p := baseParams(); p.Halo = 2; return Fingerprint(set, p) },
		"refine": func() Key { p := baseParams(); p.Refine = 4; return Fingerprint(set, p) },
		"warm": func() Key {
			p := baseParams()
			p.WarmStart = [][]float64{{1, 1}}
			return Fingerprint(set, p)
		},
	}
	for name, mutate := range mutations {
		if got := mutate(); got == base && name != "dim-vs-flat" {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}

	// Box sides must not alias: ({lo},{}) vs ({},{lo}).
	pl, ph := baseParams(), baseParams()
	pl.BoxLo = []float64{1, 1}
	ph.BoxHi = []float64{1, 1}
	if Fingerprint(set, pl) == Fingerprint(set, ph) {
		t.Error("box_lo and box_hi alias")
	}

	// Sharded and unsharded solves of the same instance produce different
	// results, so they must never share a cache entry — pin both directions
	// (sharded never hits an unsharded entry, and vice versa), plus the
	// shards/halo axes independently.
	sharded := baseParams()
	sharded.Shards, sharded.Halo = 8, 1
	if Fingerprint(set, sharded) == base {
		t.Error("sharded solve collides with the unsharded entry")
	}
	unsharded := sharded
	unsharded.Shards, unsharded.Halo = 0, 0
	if Fingerprint(set, unsharded) != base {
		t.Error("zero shards/halo is not the unsharded fingerprint")
	}
	moreShards, moreHalo := sharded, sharded
	moreShards.Shards = 16
	moreHalo.Halo = 2
	if Fingerprint(set, moreShards) == Fingerprint(set, sharded) {
		t.Error("shard count does not reach the fingerprint")
	}
	if Fingerprint(set, moreHalo) == Fingerprint(set, sharded) {
		t.Error("halo width does not reach the fingerprint")
	}
	if Fingerprint(set, moreShards) == Fingerprint(set, moreHalo) {
		t.Error("shards and halo alias in the fingerprint")
	}

	// The near-linear refinement budget changes the returned centers, so pin
	// it both ways: a refined solve never hits the default entry, and the
	// zero budget is exactly the default fingerprint. Disabled (-1) and
	// default (0) refinement differ too — they run different code.
	refined := baseParams()
	refined.Solver, refined.Refine = "nearlinear", 4
	plain := refined
	plain.Refine = 0
	if Fingerprint(set, refined) == Fingerprint(set, plain) {
		t.Error("refine budget does not reach the fingerprint")
	}
	zero := baseParams()
	zero.Refine = 0
	if Fingerprint(set, zero) != base {
		t.Error("zero refine is not the default fingerprint")
	}
	disabled := plain
	disabled.Refine = -1
	if Fingerprint(set, disabled) == Fingerprint(set, plain) {
		t.Error("disabled refinement collides with the default entry")
	}
}

// fill stores val under key the way the serving path does: a Lookup that
// leads, then the flight's Deliver.
func fill(t *testing.T, c *Cache, key Key, val any, size int64) {
	t.Helper()
	_, f, leader := c.Lookup(key)
	if !leader {
		t.Fatalf("Lookup of key %v did not lead", key)
	}
	f.Deliver(val, size)
}

// hit reports whether key is cached, refreshing its recency as a served hit
// does; a miss delivers nothing, so it leaves no entry and no flight.
func hit(c *Cache, key Key) bool {
	val, f, leader := c.Lookup(key)
	if leader {
		f.Deliver(nil, 0)
	}
	return val != nil
}

// TestLRUEvictionBudget pins the byte-budget policy: deliveries past the
// budget evict in LRU order, a hit refreshes recency, and the accounting
// (bytes, entries, eviction counter) balances.
func TestLRUEvictionBudget(t *testing.T) {
	m := obs.NewMetrics()
	const payload = 1000
	budget := int64(3 * (payload + entryOverhead))
	c := New(budget, m)

	key := func(i int) Key { return Fingerprint(mustSet(t, [][]float64{{float64(i)}}, nil), baseParams()) }
	for i := 0; i < 3; i++ {
		fill(t, c, key(i), i, payload)
	}
	if c.ll.Len() != 3 || c.bytes != budget {
		t.Fatalf("after 3 inserts: len=%d bytes=%d, want 3/%d", c.ll.Len(), c.bytes, budget)
	}

	// Touch key(0) so key(1) is now the LRU; the 4th insert must evict it.
	if !hit(c, key(0)) {
		t.Fatal("key(0) missing before eviction")
	}
	fill(t, c, key(3), 3, payload)
	if hit(c, key(1)) {
		t.Error("LRU entry survived past the budget")
	}
	for _, i := range []int{0, 2, 3} {
		if !hit(c, key(i)) {
			t.Errorf("key(%d) evicted out of LRU order", i)
		}
	}
	snap := m.Snapshot()
	if snap.Counters[obs.CtrCacheEvictions] != 1 {
		t.Errorf("evictions = %d, want 1", snap.Counters[obs.CtrCacheEvictions])
	}
	if got := snap.Gauges[obs.GaugeCacheEntries]; got != 3 {
		t.Errorf("entries gauge = %v, want 3", got)
	}
	if got := snap.Gauges[obs.GaugeCacheBytes]; got != float64(budget) {
		t.Errorf("bytes gauge = %v, want %d", got, budget)
	}

	// An entry above the whole budget is refused outright and evicts nothing.
	fill(t, c, key(9), 9, budget+1)
	if hit(c, key(9)) {
		t.Error("oversize entry was stored")
	}
	if c.ll.Len() != 3 || c.bytes != budget {
		t.Errorf("after a refused entry: len=%d bytes=%d, want 3/%d", c.ll.Len(), c.bytes, budget)
	}
}

// TestSingleflightCollapse: many goroutines racing one key produce exactly
// one leader; followers all observe the leader's delivered value.
func TestSingleflightCollapse(t *testing.T) {
	c := New(0, nil)
	key := Fingerprint(mustSet(t, [][]float64{{1, 2}}, nil), baseParams())

	// The leader holds the flight open (a real leader runs a whole solve)
	// while racers pile in: every one of them must join, not lead.
	_, lead, isLeader := c.Lookup(key)
	if !isLeader {
		t.Fatal("first Lookup must lead")
	}
	const racers = 32
	var mu sync.Mutex
	results := make([]any, 0, racers)
	var joined, wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		joined.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, f, leader := c.Lookup(key)
			joined.Done()
			if leader {
				t.Error("racer elected leader while the flight was open")
				f.Deliver(nil, 0)
				return
			}
			if val != nil {
				t.Errorf("racer got value %v before delivery", val)
				return
			}
			<-f.Done()
			mu.Lock()
			results = append(results, f.Value())
			mu.Unlock()
		}()
	}
	joined.Wait()
	lead.Deliver("value", 5)
	wg.Wait()
	if len(results) != racers {
		t.Fatalf("%d followers finished, want %d", len(results), racers)
	}
	for i, v := range results {
		if v != "value" {
			t.Errorf("racer %d saw %v", i, v)
		}
	}
	// After delivery the key resolves to the cached value atomically — a
	// Lookup can never elect a second leader for work already done.
	if v, f, leader := c.Lookup(key); v != "value" || f != nil || leader {
		t.Errorf("post-delivery Lookup = (%v, %v, %v), want cached hit", v, f, leader)
	}
}

// TestDeliverNil: a leader with nothing cacheable (partial result, solve
// error) wakes followers empty-handed and caches nothing.
func TestDeliverNil(t *testing.T) {
	c := New(0, nil)
	key := Fingerprint(mustSet(t, [][]float64{{3}}, nil), baseParams())
	_, f, leader := c.Lookup(key)
	if !leader {
		t.Fatal("first Lookup must lead")
	}
	_, follower, lead2 := c.Lookup(key)
	if lead2 || follower != f {
		t.Fatal("second Lookup must follow the first flight")
	}
	f.Deliver(nil, 0)
	f.Deliver("late", 4) // idempotent: must not overwrite
	<-follower.Done()
	if follower.Value() != nil {
		t.Errorf("follower saw %v, want nil", follower.Value())
	}
	if c.ll.Len() != 0 {
		t.Errorf("cache len %d after nil delivery", c.ll.Len())
	}

	// Nothing was cached, so the next Lookup elects a fresh leader: the
	// fall-back solve path stays available after a failed/partial leader.
	if v, f2, lead3 := c.Lookup(key); v != nil || !lead3 {
		t.Errorf("post-nil-delivery Lookup = (%v, leader=%v), want fresh leader", v, lead3)
	} else {
		f2.Deliver(nil, 0)
	}
}

// BenchmarkFingerprint keys a 1,000-user instance (serve-mix's size) and a
// 100,000-user one (solve-large's and nearlinear-large's).
//
//	go test -run '^$' -bench Fingerprint -benchmem ./internal/cache
func BenchmarkFingerprint(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{float64(i % 40), float64(i / 40)}
		}
		set := mustSet(b, rows, nil)
		p := baseParams()
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Fingerprint(set, p)
			}
		})
	}
}

func ExampleFingerprint() {
	pts := []vec.V{{0, 0}, {1, 2}}
	set, _ := pointset.UnitWeights(pts)
	a := Fingerprint(set, SolveParams{Norm: "l2", Radius: 1, K: 2, Solver: "greedy2"})
	b := Fingerprint(set, SolveParams{Norm: "l2", Radius: 1, K: 3, Solver: "greedy2"})
	fmt.Println(a == b)
	// Output: false
}
