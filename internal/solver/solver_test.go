package solver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/solver"
	"repro/internal/spatial"
	"repro/internal/xrand"

	// The registry-wide tests cover the exhaustive baseline too.
	_ "repro/internal/exhaustive"
)

func testInstance(t *testing.T, n int) *reward.Instance {
	t.Helper()
	set, err := pointset.GenUniform(n, pointset.PaperBox2D(), pointset.RandomIntWeight, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	in, err := reward.NewInstance(set, norm.L2{}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// capture returns a Sink over a buffer and a function that flushes it and
// decodes every event it streamed.
func capture(t *testing.T) (*obs.Sink, func() []obs.Event) {
	t.Helper()
	var buf bytes.Buffer
	s := obs.NewSink(&buf)
	return s, func() []obs.Event {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		var out []obs.Event
		for dec := json.NewDecoder(&buf); dec.More(); {
			var e obs.Event
			if err := dec.Decode(&e); err != nil {
				t.Fatalf("sink line not an Event: %v", err)
			}
			out = append(out, e)
		}
		return out
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	ns := solver.Names()
	if !sort.StringsAreSorted(ns) {
		t.Fatalf("Names() not sorted: %v", ns)
	}
	for _, want := range []string{"greedy1", "greedy2", "greedy2-lazy", "greedy2+swap", "greedy3", "greedy4", "random"} {
		i := sort.SearchStrings(ns, want)
		if i >= len(ns) || ns[i] != want {
			t.Fatalf("Names() = %v, missing %q", ns, want)
		}
	}
}

func TestEntriesMatchRegistry(t *testing.T) {
	for _, name := range solver.Names() {
		e, ok := solver.Lookup(name)
		if !ok || e.Name != name {
			t.Fatalf("Lookup(%q) = %+v, %v", name, e, ok)
		}
		if e.Summary == "" {
			t.Errorf("entry %q has no summary", e.Name)
		}
		if a, err := solver.New(e.Name, solver.Options{}); err != nil {
			t.Errorf("New(%q) = %v", e.Name, err)
		} else if a.Name() != e.Name {
			t.Errorf("New(%q) builds %q", e.Name, a.Name())
		}
	}
}

func TestUnknownNameListsSortedCatalog(t *testing.T) {
	_, err := solver.New("bogus", solver.Options{})
	if err == nil {
		t.Fatal("New(bogus) succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"bogus"`) {
		t.Errorf("error %q does not name the unknown algorithm", msg)
	}
	want := strings.Join(solver.Names(), " | ")
	if !strings.Contains(msg, want) {
		t.Errorf("error %q does not list the sorted catalog %q", msg, want)
	}
}

func TestRegisterRejectsEmptyAndDuplicate(t *testing.T) {
	if err := solver.Register(solver.Entry{}); err == nil {
		t.Error("Register of empty entry succeeded")
	}
	dup := solver.Entry{
		Name: "greedy2",
		New:  func(solver.Options) core.Algorithm { return core.LocalGreedy{} },
	}
	if err := solver.Register(dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Register of duplicate name = %v, want duplicate error", err)
	}
}

func TestPaperNamesResolve(t *testing.T) {
	want := []string{"greedy1", "greedy2", "greedy3", "greedy4"}
	got := solver.PaperNames()
	if len(got) != len(want) {
		t.Fatalf("PaperNames() = %v", got)
	}
	for i, n := range want {
		if got[i] != n {
			t.Fatalf("PaperNames() = %v, want %v", got, want)
		}
		a, err := solver.New(n, solver.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() == "" {
			t.Errorf("%s constructs an unnamed algorithm", n)
		}
	}
	// greedy1 must come wired with a continuous inner solver.
	a, _ := solver.New("greedy1", solver.Options{})
	if rb, ok := a.(core.RoundBased); !ok || rb.Solver == nil {
		t.Error("greedy1 not wired with an inner solver")
	}
}

func TestNewAttachesCollector(t *testing.T) {
	in := testInstance(t, 40)
	m := obs.NewMetrics()
	in.SetCollector(m)
	a, err := solver.New("greedy2", solver.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(context.Background(), in, 2); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Counters[obs.CtrRounds]; got != 2 {
		t.Errorf("instrumented run recorded %d rounds, want 2", got)
	}
}

// cancelAfterRound is an obs.Collector that cancels a context once the given
// round's stage ends — the deterministic deadline used by the anytime-prefix
// tests below.
type cancelAfterRound struct {
	round  int
	cancel context.CancelFunc
}

func (cancelAfterRound) Count(string, int64)     {}
func (cancelAfterRound) TimeNS(string, int64)    {}
func (cancelAfterRound) Gauge(string, float64)   {}
func (cancelAfterRound) Observe(string, float64) {}
func (c cancelAfterRound) Emit(e obs.Event) {
	if e.Type == obs.EvSpanEnd && e.Name == obs.StageRound && e.Fields["round"] >= float64(c.round) {
		c.cancel()
	}
}

// TestCancellationPrefixEquivalence is the anytime contract of DESIGN.md §8:
// cancelling greedy 1–4 after round j yields exactly the first j centers of
// the uncancelled run, bit for bit, with ctx.Err() reported alongside and the
// cancellation recorded as telemetry.
func TestCancellationPrefixEquivalence(t *testing.T) {
	in := testInstance(t, 50)
	const k = 4
	for _, name := range solver.PaperNames() {
		t.Run(name, func(t *testing.T) {
			full, err := mustAlg(t, name).Run(context.Background(), in, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Centers) != k {
				t.Fatalf("uncancelled run selected %d centers, want %d", len(full.Centers), k)
			}
			for j := 1; j < k; j++ {
				m := obs.NewMetrics()
				sink, events := capture(t)
				ctx, cancel := context.WithCancel(context.Background())
				col := obs.Multi(m, sink, cancelAfterRound{round: j, cancel: cancel})
				part, err := mustAlg(t, name).Run(ctx, in.WithCollector(col), k)
				cancel()
				if err != context.Canceled {
					t.Fatalf("j=%d: err = %v, want context.Canceled", j, err)
				}
				if part == nil {
					t.Fatalf("j=%d: cancelled run returned nil result", j)
				}
				if verr := part.Validate(); verr != nil {
					t.Fatalf("j=%d: partial result invalid: %v", j, verr)
				}
				if len(part.Centers) != j {
					t.Fatalf("j=%d: got %d centers, want exactly %d", j, len(part.Centers), j)
				}
				for r := 0; r < j; r++ {
					if part.Gains[r] != full.Gains[r] {
						t.Fatalf("j=%d round %d: gain %v != uncancelled %v", j, r, part.Gains[r], full.Gains[r])
					}
					for d, x := range part.Centers[r] {
						if x != full.Centers[r][d] {
							t.Fatalf("j=%d round %d dim %d: center %v != uncancelled %v",
								j, r, d, part.Centers[r], full.Centers[r])
						}
					}
				}
				snap := m.Snapshot()
				if snap.Counters[obs.CtrCancelled] != 1 {
					t.Errorf("j=%d: cancelled counter = %d, want 1", j, snap.Counters[obs.CtrCancelled])
				}
				found := false
				for _, e := range events() {
					if e.Type == obs.EvCancelled {
						found = true
						if got := e.Fields["rounds"]; got != float64(j) {
							t.Errorf("j=%d: cancelled event reports %v rounds", j, got)
						}
					}
				}
				if !found {
					t.Errorf("j=%d: no %s event recorded", j, obs.EvCancelled)
				}
			}
		})
	}
}

// TestPreCancelledContext: a context that is already dead yields an empty
// (but valid) prefix and the context's error — never a nil-result panic.
func TestPreCancelledContext(t *testing.T) {
	in := testInstance(t, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range solver.PaperNames() {
		res, err := mustAlg(t, name).Run(ctx, in, 3)
		if err != context.Canceled {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if res == nil {
			t.Errorf("%s: nil result on pre-cancelled context", name)
			continue
		}
		if len(res.Centers) != 0 {
			t.Errorf("%s: pre-cancelled run committed %d centers", name, len(res.Centers))
		}
		if verr := res.Validate(); verr != nil {
			t.Errorf("%s: empty prefix invalid: %v", name, verr)
		}
	}
}

func mustAlg(t *testing.T, name string) core.Algorithm {
	t.Helper()
	a, err := solver.New(name, solver.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestWarmStartOption: Options.WarmStart wraps the cold solver in
// core.WarmStarted via the registry, so a strictly better carried-over
// center set wins while a worthless one leaves the cold result untouched.
func TestWarmStartOption(t *testing.T) {
	in := testInstance(t, 40)
	cold, err := solver.New("greedy3", solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Run(context.Background(), in, 1)
	if err != nil {
		t.Fatal(err)
	}
	warmC := obs.NewMetrics()
	warm, err := solver.New("greedy3", solver.Options{WarmStart: coldRes.Centers})
	if err != nil {
		t.Fatal(err)
	}
	res, err := warm.Run(context.Background(), in.WithCollector(warmC), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < coldRes.Total {
		t.Fatalf("warm-started total %v < cold %v", res.Total, coldRes.Total)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if warmC.Snapshot().Counters[obs.CtrWarmStarts] != 1 {
		t.Error("warm start not counted — Options.WarmStart did not wrap")
	}
}

// TestShardedCompositeName: the registry's composable "sharded(<inner>)"
// form constructs the partition → shard-solve → merge pipeline, reports the
// composite name, and produces a valid result.
func TestShardedCompositeName(t *testing.T) {
	in := testInstance(t, 200)
	a, err := solver.New("sharded(greedy2-lazy)", solver.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Name(); got != "sharded(greedy2-lazy)" {
		t.Fatalf("Name() = %q", got)
	}
	res, err := a.Run(context.Background(), in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "sharded(greedy2-lazy)" {
		t.Errorf("result algorithm = %q", res.Algorithm)
	}
}

// TestShardsOptionWraps: Options.Shards > 1 on a plain name routes through
// the same pipeline; 0 and 1 stay single-shot.
func TestShardsOptionWraps(t *testing.T) {
	for shards, want := range map[int]string{
		0: "greedy2",
		1: "greedy2",
		4: "sharded(greedy2)",
	} {
		a, err := solver.New("greedy2", solver.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != want {
			t.Errorf("Shards=%d: Name() = %q, want %q", shards, a.Name(), want)
		}
	}
	if _, err := solver.New("greedy2", solver.Options{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
}

// TestShardedUnknownInner: a bad inner name inside the composite reports the
// standard sorted-catalog error, same as a bad plain name.
func TestShardedUnknownInner(t *testing.T) {
	_, err := solver.New("sharded(bogus)", solver.Options{})
	if err == nil {
		t.Fatal("sharded(bogus) accepted")
	}
	if !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), "greedy2") {
		t.Errorf("error %q does not report the catalog", err)
	}
	// Malformed composites fall through to plain lookup and fail there.
	for _, name := range []string{"sharded()", "sharded(", "sharded"} {
		if _, err := solver.New(name, solver.Options{}); err == nil {
			t.Errorf("New(%q) accepted", name)
		}
	}
}

// TestRoundNSParallelsGains: every algorithm that commits rounds one at a
// time records each round's wall time on its result, with or without a
// collector; exhaustive search and random placement, which are not built
// round by round, leave RoundNS empty.
func TestRoundNSParallelsGains(t *testing.T) {
	in := testInstance(t, 30)
	const k = 3
	for _, name := range append(solver.Names(), "sharded(greedy2-lazy)") {
		for _, col := range []obs.Collector{nil, obs.NewMetrics()} {
			res, err := mustAlg(t, name).Run(context.Background(), in.WithCollector(col), k)
			if err != nil {
				t.Fatalf("%s (collector %v): %v", name, col != nil, err)
			}
			if name == "exhaustive" || name == "random" {
				if len(res.RoundNS) != 0 {
					t.Errorf("%s: RoundNS = %v, want empty", name, res.RoundNS)
				}
				continue
			}
			if len(res.RoundNS) != len(res.Gains) {
				t.Fatalf("%s (collector %v): %d round times for %d gains",
					name, col != nil, len(res.RoundNS), len(res.Gains))
			}
			for j, ns := range res.RoundNS {
				if ns <= 0 {
					t.Errorf("%s (collector %v): round %d wall time %d", name, col != nil, j+1, ns)
				}
			}
		}
	}
}

// TestCheckMatchesNew: Check accepts exactly what New can construct, for
// plain and composite names — the serving layer relies on this agreement.
func TestCheckMatchesNew(t *testing.T) {
	for _, name := range append(solver.Names(), "sharded(greedy2)", "sharded(random)") {
		if err := solver.Check(name); err != nil {
			t.Errorf("Check(%q) = %v", name, err)
		}
		if _, err := solver.New(name, solver.Options{}); err != nil {
			t.Errorf("New(%q) = %v", name, err)
		}
	}
	for _, name := range []string{"bogus", "sharded(bogus)", "sharded()"} {
		if err := solver.Check(name); err == nil {
			t.Errorf("Check(%q) accepted", name)
		}
	}
}

// TestShardedObsCountsMergeRoundsOnly: with a collector attached, a sharded
// solve reports exactly k rounds (the merge's) — the inner per-shard solvers
// run on collector-less parts so their rounds cannot pollute request
// accounting — while the shard.* counters expose the pipeline stages.
func TestShardedObsCountsMergeRoundsOnly(t *testing.T) {
	in := testInstance(t, 300)
	m := obs.NewMetrics()
	in.SetCollector(m)
	a, err := solver.New("greedy2-lazy", solver.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	if _, err := a.Run(context.Background(), in, k); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if got := snap.Counters[obs.CtrRounds]; got != k {
		t.Errorf("rounds = %d, want %d", got, k)
	}
	if got := snap.Counters[obs.CtrShardParts]; got < 2 {
		t.Errorf("shard parts = %d, want >= 2", got)
	}
	if got := snap.Counters[obs.CtrShardSolves]; got != snap.Counters[obs.CtrShardParts] {
		t.Errorf("shard solves = %d, parts = %d", got, snap.Counters[obs.CtrShardParts])
	}
	if snap.Counters[obs.CtrShardCandidates] == 0 {
		t.Error("no shard candidates counted")
	}
}

// TestShardedCancellation: the composite honors the anytime contract — a
// dead context yields an empty valid prefix and the context error.
func TestShardedCancellation(t *testing.T) {
	in := testInstance(t, 100)
	a, err := solver.New("sharded(greedy2)", solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := a.Run(ctx, in, 3)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Centers) != 0 {
		t.Fatalf("res = %+v, want empty prefix", res)
	}
}

// TestShardedWarmStart: WarmStart wraps around the whole pipeline (once),
// so a carried-over center set can only improve the sharded result.
func TestShardedWarmStart(t *testing.T) {
	in := testInstance(t, 150)
	cold, err := solver.New("sharded(greedy2-lazy)", solver.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Run(context.Background(), in, 2)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := solver.New("sharded(greedy2-lazy)", solver.Options{Seed: 5, WarmStart: coldRes.Centers})
	if err != nil {
		t.Fatal(err)
	}
	res, err := warm.Run(context.Background(), in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < coldRes.Total {
		t.Fatalf("warm-started sharded total %v < cold %v", res.Total, coldRes.Total)
	}
}

// TestFinderPreservesRegistry: every registry entry, the exhaustive
// baseline included, returns bit-identical centers, gains and totals with
// the instance's grid and without a finder, under the 1-, 2- and ∞-norms.
// cdgreedy and cdstation solve on grid-indexed instances, so no entry may
// depend on the index. n stays small for the exhaustive search.
func TestFinderPreservesRegistry(t *testing.T) {
	rng := xrand.New(53)
	for trial := 0; trial < 3; trial++ {
		n, r, k := rng.IntRange(8, 14), rng.Uniform(0.5, 1.5), rng.IntRange(1, 3)
		set, err := pointset.GenUniform(n, pointset.PaperBox2D(), pointset.RandomIntWeight, rng)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := spatial.NewGrid(set.Points(), r)
		if err != nil {
			t.Fatal(err)
		}
		for _, nm := range []norm.Norm{norm.L1{}, norm.L2{}, norm.LInf{}} {
			in, err := reward.NewInstance(set, nm, r)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range solver.Names() {
				var res [2]*core.Result
				for i, f := range []reward.NeighborFinder{nil, grid} {
					in.SetFinder(f)
					alg, err := solver.New(name, solver.Options{Workers: 2, Seed: 5})
					if err != nil {
						t.Fatal(err)
					}
					if res[i], err = alg.Run(context.Background(), in, k); err != nil {
						t.Fatal(err)
					}
				}
				plain, got := res[0], res[1]
				if got.Total != plain.Total || len(got.Centers) != len(plain.Centers) {
					t.Fatalf("trial %d %s %s: grid changed total %v (%d centers) -> %v (%d)", trial, nm.Name(), name,
						plain.Total, len(plain.Centers), got.Total, len(got.Centers))
				}
				for j := range got.Centers {
					if !got.Centers[j].Equal(plain.Centers[j]) || got.Gains[j] != plain.Gains[j] {
						t.Fatalf("trial %d %s %s round %d: grid changed the result", trial, nm.Name(), name, j)
					}
				}
			}
		}
	}
}
