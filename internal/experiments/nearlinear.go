package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/report"
	"repro/internal/spatial"
	"repro/internal/xrand"
)

// RunNearLinearScale compares the exact accelerated greedy (lazy + grid
// index) against the grid-snapped near-linear solver as n grows. Unlike the
// ablation-scale variants these are NOT bit-identical: nearlinear trades a
// bounded objective gap for per-round cost proportional to the number of
// occupied grid cells instead of n. The table reports that gap (quality
// ratio vs the exact greedy) next to the wall-clock speedup.
func RunNearLinearScale(ctx context.Context, cfg RunConfig) (*Output, error) {
	sizes := []int{2000, 20000}
	k, r := 8, 0.4
	if cfg.Quick {
		sizes = []int{500}
		k = 4
	}
	tb := report.NewTable(fmt.Sprintf("near-linear solver vs exact greedy (k=%d, r=%g, 2-norm, 4x4 box)", k, r),
		"n", "solver", "total reward", "quality vs exact", "time", "speedup")
	out := &Output{}
	rng := xrand.New(cfg.Seed ^ 0x9ea51)
	for _, n := range sizes {
		set, err := pointset.GenUniform(n, pointset.PaperBox2D(), pointset.RandomIntWeight, rng)
		if err != nil {
			return nil, err
		}
		run := func(alg core.Algorithm) (*core.Result, time.Duration, error) {
			in, err := cfg.newInstance(set, norm.L2{}, r)
			if err != nil {
				return nil, 0, err
			}
			g, err := spatial.NewGridCoords(set.Coords(), set.Dim(), r)
			if err != nil {
				return nil, 0, err
			}
			in.SetFinder(g)
			start := time.Now()
			res, err := alg.Run(ctx, in, k)
			return res, time.Since(start), err
		}
		exact, exactTime, err := run(core.LazyGreedy{})
		if err != nil {
			return nil, err
		}
		approx, approxTime, err := run(core.NearLinear{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		ratio := approx.Total / exact.Total
		tb.AddRow(n, "greedy2 lazy+grid", exact.Total, 1.0, exactTime.Round(10*time.Microsecond).String(), 1.0)
		tb.AddRow(n, "nearlinear", approx.Total, ratio,
			approxTime.Round(10*time.Microsecond).String(), float64(exactTime)/float64(approxTime))
		if ratio < 0.85 {
			return nil, fmt.Errorf("experiments: nearlinear quality %0.4f at n=%d below the 0.85 floor", ratio, n)
		}
	}
	out.Tables = append(out.Tables, tb)
	out.Notes = append(out.Notes,
		"nearlinear snaps candidates to occupied grid cells (cell width = the coverage radius), seeds",
		"with a k-means++ pass over cell representatives, and locally refines each pick; per-round",
		"cost is O(occupied cells), so wall time stops tracking n once cells saturate. The quality",
		"column is the price of the approximation; the speedup column is what it buys.")
	out.Notes = append(out.Notes, cfg.countingNote()...)
	return out, nil
}
