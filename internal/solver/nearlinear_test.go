package solver_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/solver"
	"repro/internal/spatial"
	"repro/internal/xrand"
)

// genNLInstance builds a uniform random instance over the paper's box (2-D
// or 3-D) with a grid finder attached, matching how production callers
// accelerate Near queries — the same setup as the sharded quality gate.
func genNLInstance(t testing.TB, n, dim int, nm norm.Norm, r float64, seed uint64) *reward.Instance {
	t.Helper()
	box := pointset.PaperBox2D()
	if dim == 3 {
		box = pointset.PaperBox3D()
	}
	set, err := pointset.GenUniform(n, box, pointset.RandomIntWeight, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	in, err := reward.NewInstance(set, nm, r)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spatial.NewGrid(set.Points(), r)
	if err != nil {
		t.Fatal(err)
	}
	in.SetFinder(g)
	return in
}

// TestNearLinearQualityGate is the tier-1 quality-regression gate of the
// near-linear solver: across norms × dimensions on seeded uniform
// instances, the grid-snapped objective must stay within 10% of single-shot
// greedy (the paper's greedy2). The bounded candidate pool plus exact
// scoring and refinement is what makes this hold; a snap, seeding, or
// refinement regression trips it.
func TestNearLinearQualityGate(t *testing.T) {
	const k, minRatio = 8, 0.9
	norms := []norm.Norm{norm.L1{}, norm.L2{}, norm.LInf{}}
	for _, dim := range []int{2, 3} {
		n, r := 1200, 0.5
		if dim == 3 {
			n, r = 900, 0.8
		}
		for _, nm := range norms {
			t.Run(fmt.Sprintf("%s/dim%d", nm.Name(), dim), func(t *testing.T) {
				in := genNLInstance(t, n, dim, nm, r, uint64(41+dim))
				single, err := mustAlg(t, "greedy2").Run(context.Background(), in, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := mustAlg(t, "nearlinear").Run(context.Background(), in, k)
				if err != nil {
					t.Fatal(err)
				}
				if err := got.Validate(); err != nil {
					t.Fatal(err)
				}
				ratio := got.Total / single.Total
				if ratio < minRatio {
					t.Errorf("nearlinear/single = %.4f < %.2f (nearlinear %.4f, single %.4f)",
						ratio, minRatio, got.Total, single.Total)
				}
			})
		}
	}
}

// TestNearLinearDeterminismAcrossWorkers pins the same contract as
// TestShardedDeterminismAcrossWorkers: the result is bit-identical at any
// Workers count, for both the plain solver (serial by construction) and the
// sharded(nearlinear) composition (part-ordered candidates, content-derived
// per-shard seeds).
func TestNearLinearDeterminismAcrossWorkers(t *testing.T) {
	in := genNLInstance(t, 600, 2, norm.L2{}, 0.5, 19)
	const k = 6
	for _, name := range []string{"nearlinear", "sharded(nearlinear)"} {
		t.Run(name, func(t *testing.T) {
			run := func(w int) *core.Result {
				a, err := solver.New(name, solver.Options{Workers: w, Seed: 7, Shards: 4})
				if err != nil {
					t.Fatal(err)
				}
				res, err := a.Run(context.Background(), in, k)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Validate(); err != nil {
					t.Fatal(err)
				}
				return res
			}
			base := run(1)
			if len(base.Centers) != k {
				t.Fatalf("selected %d centers, want %d", len(base.Centers), k)
			}
			for _, w := range []int{2, 3, 8} {
				got := run(w)
				if got.Total != base.Total || len(got.Centers) != len(base.Centers) {
					t.Fatalf("workers=%d: total %v (%d centers) vs %v (%d)", w,
						got.Total, len(got.Centers), base.Total, len(base.Centers))
				}
				for j := range base.Centers {
					if !got.Centers[j].Equal(base.Centers[j]) || got.Gains[j] != base.Gains[j] {
						t.Fatalf("workers=%d round %d: result differs from workers=1", w, j)
					}
				}
			}
		})
	}
}

// TestNearLinearAnytimePrefix: the near-linear solver honors the same
// anytime contract as greedy 1–4 — cancelling after round j returns exactly
// the first j centers of the uncancelled run, bit for bit, and a
// pre-cancelled context yields an empty valid prefix.
func TestNearLinearAnytimePrefix(t *testing.T) {
	in := genNLInstance(t, 400, 2, norm.L2{}, 0.5, 5)
	const k = 4
	full, err := mustAlg(t, "nearlinear").Run(context.Background(), in, k)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < k; j++ {
		ctx, cancel := context.WithCancel(context.Background())
		part, err := mustAlg(t, "nearlinear").Run(ctx, in.WithCollector(cancelAfterRound{round: j, cancel: cancel}), k)
		cancel()
		if err != context.Canceled {
			t.Fatalf("j=%d: err = %v, want context.Canceled", j, err)
		}
		if verr := part.Validate(); verr != nil {
			t.Fatalf("j=%d: partial result invalid: %v", j, verr)
		}
		if len(part.Centers) != j {
			t.Fatalf("j=%d: got %d centers, want exactly %d", j, len(part.Centers), j)
		}
		for r := 0; r < j; r++ {
			if part.Gains[r] != full.Gains[r] || !part.Centers[r].Equal(full.Centers[r]) {
				t.Fatalf("j=%d round %d: prefix differs from uncancelled run", j, r)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := mustAlg(t, "nearlinear").Run(ctx, in, 3)
	if err != context.Canceled {
		t.Errorf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Centers) != 0 {
		t.Errorf("pre-cancelled: res = %+v, want empty prefix", res)
	}
}

// TestNearLinearStageTelemetry: an instrumented run records the grid-snap /
// seed / refine stage counters, and each stage once, with one round per
// center inside the refine stage, so dashboards can attribute time to
// stages: every stage's span_end count equals its timer's sample count.
func TestNearLinearStageTelemetry(t *testing.T) {
	in := genNLInstance(t, 300, 2, norm.L2{}, 0.5, 3)
	m := obs.NewMetrics()
	sink, events := capture(t)
	col := obs.Multi(m, sink)
	root := obs.StartSpan(col, "t1", "solve")
	ctx := obs.ContextWithSpan(context.Background(), root)
	const k = 3
	res, err := mustAlg(t, "nearlinear").Run(ctx, in.WithCollector(col), k)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.Counters[obs.CtrNLCells] <= 0 {
		t.Errorf("no occupied cells counted")
	}
	if snap.Counters[obs.CtrNLSeeds] <= 0 || snap.Counters[obs.CtrNLSeeds] > k {
		t.Errorf("seeds counter = %d, want in (0, %d]", snap.Counters[obs.CtrNLSeeds], k)
	}
	if snap.Counters[obs.CtrNLCandidates] <= 0 {
		t.Errorf("no exact-scored candidates counted")
	}
	if got := snap.Counters[obs.CtrRounds]; got != k {
		t.Errorf("rounds = %d, want %d", got, k)
	}
	ends := map[string][]obs.Event{}
	for _, e := range events() {
		if e.Type == obs.EvSpanEnd {
			ends[e.Name] = append(ends[e.Name], e)
		}
	}
	for _, stage := range []string{obs.StageNLSnap, obs.StageNLSeed, obs.StageNLRefine, obs.StageRound} {
		want := 1
		if stage == obs.StageRound {
			want = k
		}
		if got, n := len(ends[stage]), snap.TimersNS[stage+"_ns"].Count; got != want || int(n) != want {
			t.Fatalf("stage %s: %d span_end events, %d timer samples, want %d", stage, got, n, want)
		}
	}
	// The grid_snap → seed → refine → round chain: the three stages under
	// the caller's span, every round inside refine.
	for _, stage := range []string{obs.StageNLSnap, obs.StageNLSeed, obs.StageNLRefine} {
		if e := ends[stage][0]; e.Parent != root.ID() || e.Trace != "t1" {
			t.Errorf("stage %s parented by %q in trace %q, want the caller's span", stage, e.Parent, e.Trace)
		}
	}
	refine := ends[obs.StageNLRefine][0].Span
	for _, e := range ends[obs.StageRound] {
		if e.Parent != refine || e.Alg != "nearlinear" {
			t.Errorf("round %v: parent %q alg %q, want the refine stage and nearlinear", e.Fields["round"], e.Parent, e.Alg)
		}
	}
}

// TestNearLinearRefineOption: Options.Refine threads through the registry —
// negative disables refinement entirely (no refine steps counted) and the
// result is still valid.
func TestNearLinearRefineOption(t *testing.T) {
	in := genNLInstance(t, 300, 2, norm.L2{}, 0.5, 9)
	m := obs.NewMetrics()
	a, err := solver.New("nearlinear", solver.Options{Refine: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(context.Background(), in.WithCollector(m), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Counters[obs.CtrNLRefineSteps]; got != 0 {
		t.Errorf("Refine=-1 still took %d refine steps", got)
	}
	md := obs.NewMetrics()
	if _, err := mustAlgOpts(t, solver.Options{}).Run(context.Background(), in.WithCollector(md), 4); err != nil {
		t.Fatal(err)
	}
	if got := md.Snapshot().Counters[obs.CtrNLRefineSteps]; got <= 0 {
		t.Errorf("default Refine took no refine steps")
	}
}

func mustAlgOpts(t *testing.T, opts solver.Options) core.Algorithm {
	t.Helper()
	a, err := solver.New("nearlinear", opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestNearLinearSameWithAnyFinder: nearlinear snaps to the instance's own
// grid when its finder is one and builds the same grid otherwise, so a grid
// finder and no finder give bit-identical results.
func TestNearLinearSameWithAnyFinder(t *testing.T) {
	for _, dim := range []int{2, 3} {
		in := genNLInstance(t, 900, dim, norm.L2{}, 0.5, 37)
		var want *core.Result
		for fi, f := range []reward.NeighborFinder{in.Finder(), nil} {
			in.SetFinder(f)
			got, err := mustAlg(t, "nearlinear").Run(context.Background(), in, 8)
			if err != nil {
				t.Fatal(err)
			}
			if fi == 0 {
				want = got
				continue
			}
			if got.Total != want.Total || len(got.Centers) != len(want.Centers) {
				t.Fatalf("dim %d %T: total %v (%d centers), %v (%d) with the grid", dim, f,
					got.Total, len(got.Centers), want.Total, len(want.Centers))
			}
			for j := range want.Centers {
				if !got.Centers[j].Equal(want.Centers[j]) || got.Gains[j] != want.Gains[j] {
					t.Fatalf("dim %d %T round %d: result differs from the grid finder's", dim, f, j)
				}
			}
		}
	}
}
