package core

import (
	"context"
	"testing"

	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// TestWarmStartedNeverWorse: across random instances and carried-over center
// sets (good, bad, and empty), the wrapper's total must be >= the cold
// solver's, the result must validate, and the carry-over must only win when
// it genuinely scores higher.
func TestWarmStartedNeverWorse(t *testing.T) {
	rng := xrand.New(31)
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(t, rng, rng.IntRange(10, 60), norm.L2{}, rng.Uniform(0.5, 1.5))
		k := rng.IntRange(1, 4)
		cold, err := (SimpleGreedy{}).Run(context.Background(), in, k)
		if err != nil {
			t.Fatal(err)
		}
		prev := make([]vec.V, k)
		for j := range prev {
			if rng.Bernoulli(0.5) {
				prev[j] = in.Set.Point(rng.Intn(in.N())).Clone()
			} else {
				prev[j] = vec.Of(rng.Uniform(-2, 6), rng.Uniform(-2, 6))
			}
		}
		w := WarmStarted{Base: SimpleGreedy{}, Prev: prev}
		res, err := w.Run(context.Background(), in, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Total < cold.Total {
			t.Fatalf("trial %d: warm-started total %v < cold %v", trial, res.Total, cold.Total)
		}
		if len(res.Centers) != k {
			t.Fatalf("trial %d: %d centers, want %d", trial, len(res.Centers), k)
		}
	}
}

// TestWarmStartedKeepsWinner pins both branches with hand-built carry-overs:
// the data points themselves (beats SimpleGreedy's k=1 pick only when they
// tie, so cold stands on equality) and a deliberately bad far-away center.
func TestWarmStartedKeepsWinner(t *testing.T) {
	// An equilateral-ish triangle: its centroid beats any vertex (SimpleGreedy
	// always centers on a data point), so the carry-over can genuinely win.
	in := mustInstance(t,
		[]vec.V{vec.Of(0, 0), vec.Of(0.2, 0), vec.Of(0.1, 0.2)},
		[]float64{1, 1, 1}, norm.L2{}, 1)
	cold, err := (SimpleGreedy{}).Run(context.Background(), in, 1)
	if err != nil {
		t.Fatal(err)
	}

	good := []vec.V{vec.Of(0.1, 0.0667)}
	res, err := WarmStarted{Base: SimpleGreedy{}, Prev: good}.Run(context.Background(), in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= cold.Total {
		t.Fatalf("good carry-over did not win: %v vs cold %v", res.Total, cold.Total)
	}
	if res.Centers[0][1] != 0.0667 {
		t.Fatalf("winner centers = %v, want the carry-over", res.Centers)
	}
	// The carry-over's total is the evaluator objective, bit for bit.
	e, err := reward.NewEvaluator(in, res.Centers)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Objective(); got != res.Total {
		t.Fatalf("carry-over total %v != evaluator objective %v", res.Total, got)
	}

	// A worthless carry-over must leave the cold result bit-identical.
	bad := []vec.V{vec.Of(100, 100)}
	res, err = WarmStarted{Base: SimpleGreedy{}, Prev: bad}.Run(context.Background(), in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != cold.Total || res.Centers[0][0] != cold.Centers[0][0] {
		t.Fatalf("bad carry-over changed the cold result: %+v vs %+v", res, cold)
	}
}

// TestWarmStartedSkips: a size- or dimension-mismatched carry-over is
// ignored rather than failing the run, and a cancelled base run passes
// through untouched (the anytime contract is the base's, not the wrapper's).
func TestWarmStartedSkips(t *testing.T) {
	rng := xrand.New(5)
	in := randomInstance(t, rng, 20, norm.L2{}, 1)
	cold, err := (SimpleGreedy{}).Run(context.Background(), in, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, prev := range map[string][]vec.V{
		"wrong-k":   {vec.Of(1, 1)},
		"wrong-dim": {vec.Of(1, 1, 1), vec.Of(2, 2, 2)},
	} {
		res, err := WarmStarted{Base: SimpleGreedy{}, Prev: prev}.Run(context.Background(), in, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Total != cold.Total {
			t.Errorf("%s: total %v != cold %v", name, res.Total, cold.Total)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := WarmStarted{Base: SimpleGreedy{}, Prev: cold.Centers}.Run(ctx, in, 2)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if len(res.Centers) != 0 {
		t.Errorf("pre-cancelled run selected centers: %v", res.Centers)
	}
}

// TestWarmStartedObs checks the telemetry contract: every comparison counts
// a warm start, wins count separately, and the improvement lands in the
// churn.warmstart_improvement histogram.
func TestWarmStartedObs(t *testing.T) {
	in := mustInstance(t,
		[]vec.V{vec.Of(0, 0), vec.Of(0.2, 0), vec.Of(0.1, 0.2)},
		[]float64{1, 1, 1}, norm.L2{}, 1)
	c := obs.NewMetrics()
	in.SetCollector(c)
	w := WarmStarted{Base: SimpleGreedy{}, Prev: []vec.V{vec.Of(0.1, 0.0667)}}
	if _, err := w.Run(context.Background(), in, 1); err != nil {
		t.Fatal(err)
	}
	w.Prev = []vec.V{vec.Of(100, 100)}
	if _, err := w.Run(context.Background(), in, 1); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.Counters[obs.CtrWarmStarts] != 2 {
		t.Errorf("warm starts = %d, want 2", snap.Counters[obs.CtrWarmStarts])
	}
	if snap.Counters[obs.CtrWarmWins] != 1 {
		t.Errorf("warm wins = %d, want 1", snap.Counters[obs.CtrWarmWins])
	}
}
