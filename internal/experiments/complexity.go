package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// RunComplexity empirically verifies the complexity claims of §V: greedy 3
// is O(kn) (Theorem 3), greedy 2 is O(kn²), and greedy 4 is O(kn³)
// (Theorem 4). Each algorithm is timed across a geometric sweep of n at
// fixed k, and the log-log slope of time against n estimates the exponent.
// Constant factors, cache effects, and greedy 4's early-stopping walks push
// the fitted exponents below the worst-case bounds; the invariant asserted
// here is exp(greedy3) < exp(greedy2), the separation Theorem 3 claims.
func RunComplexity(ctx context.Context, cfg RunConfig) (*Output, error) {
	sizes := []int{100, 200, 400, 800}
	reps := 3
	if cfg.Quick {
		sizes = []int{50, 100, 200}
		reps = 1
	}
	const k = 4
	algs := []core.Algorithm{
		core.SimpleGreedy{},
		core.LocalGreedy{Workers: 1},
		core.ComplexGreedy{Workers: 1},
	}
	rng := xrand.New(cfg.Seed ^ 0xc0de)

	tb := report.NewTable(fmt.Sprintf("runtime vs n (k=%d, 2-norm, r=0.8, 4x4 box, best of %d reps)", k, reps),
		"algorithm", "n", "time")
	fit := report.NewTable("fitted complexity exponents (log-log slope of time vs n)",
		"algorithm", "paper bound", "fitted exponent")
	bounds := map[string]string{"greedy3": "O(kn)", "greedy2": "O(kn^2)", "greedy4": "O(kn^3)"}

	exponents := map[string]float64{}
	for _, alg := range algs {
		var lx, ly []float64
		for _, n := range sizes {
			set, err := pointset.GenUniform(n, pointset.PaperBox2D(), pointset.RandomIntWeight, rng)
			if err != nil {
				return nil, err
			}
			in, err := cfg.newInstance(set, norm.L2{}, 0.8)
			if err != nil {
				return nil, err
			}
			best := time.Duration(math.MaxInt64)
			for rep := 0; rep < reps; rep++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				start := time.Now()
				if _, err := alg.Run(ctx, in, k); err != nil {
					return nil, err
				}
				if el := time.Since(start); el < best {
					best = el
				}
			}
			tb.AddRow(alg.Name(), n, best.Round(10*time.Microsecond).String())
			lx = append(lx, math.Log(float64(n)))
			ly = append(ly, math.Log(float64(best.Nanoseconds())))
		}
		slope, _, err := stats.LinearFit(lx, ly)
		if err != nil {
			return nil, err
		}
		exponents[alg.Name()] = slope
		fit.AddRow(alg.Name(), bounds[alg.Name()], slope)
	}
	// Sanity of the ordering claim (skip in quick mode: one rep is noisy).
	if !cfg.Quick {
		if !(exponents["greedy3"] < exponents["greedy2"]) {
			return nil, fmt.Errorf("experiments: exponent ordering violated: greedy3 %.2f >= greedy2 %.2f",
				exponents["greedy3"], exponents["greedy2"])
		}
	}
	out := &Output{Tables: []*report.Table{tb, fit}}
	out.Notes = append(out.Notes,
		"Fitted exponents are effective (measured) growth rates, upper-bounded by the paper's worst-case",
		"claims. greedy3 stays near-linear and greedy2 tracks its n² bound closely; greedy4's walks",
		"terminate early on sparse instances, so its effective exponent falls well below 3 even though",
		"its absolute time dominates everything (the per-seed SEB walks carry a large constant).")
	out.Notes = append(out.Notes, cfg.countingNote()...)
	return out, nil
}
