package experiments

import (
	"context"
	"fmt"

	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// RunRadiusCurve extends the paper's three-point radius grid {1, 1.5, 2} to
// a continuous sweep: total reward versus r at fixed k for every algorithm.
// Reward is monotone in r point-wise (coverage only widens), so each curve
// must be non-decreasing; the interesting shape is where the algorithms
// separate — small r — and where they saturate toward Σw.
func RunRadiusCurve(ctx context.Context, cfg RunConfig) (*Output, error) {
	const (
		n = 40
		k = 4
	)
	radii := []float64{0.25, 0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3}
	if cfg.Quick {
		radii = []float64{0.5, 1, 2}
	}
	algs := paperAlgorithms()
	fig := &report.Figure{
		ID:     "radiuscurve",
		Title:  fmt.Sprintf("total reward vs radius (n=%d, k=%d, 2-norm, random weights)", n, k),
		XLabel: "coverage radius r",
		YLabel: "total reward",
	}
	tb := report.NewTable("reward vs radius", "r", "greedy1", "greedy2", "greedy3", "greedy4", "Σw")
	series := map[string][]float64{}
	var xs, caps []float64
	for ri, r := range radii {
		res, err := sim.RunTrials(ctx, cfg.trials(), cfg.Workers, cfg.Seed^uint64(ri)<<20^0x4ad,
			func(ctx context.Context, trial int, rng *xrand.Rand) (map[string]float64, error) {
				set, err := pointset.GenUniform(n, pointset.PaperBox2D(), pointset.RandomIntWeight, rng)
				if err != nil {
					return nil, err
				}
				in, err := cfg.newInstance(set, norm.L2{}, r)
				if err != nil {
					return nil, err
				}
				metrics := map[string]float64{"cap": set.TotalWeight()}
				for _, alg := range algs {
					rr, err := alg.Run(ctx, in, k)
					if err != nil {
						return nil, err
					}
					metrics[alg.Name()] = rr.Total
				}
				return metrics, nil
			})
		if err != nil {
			return nil, err
		}
		xs = append(xs, r)
		row := []interface{}{r}
		for _, name := range ratioAlgNames {
			m, _ := res.Mean(name)
			series[name] = append(series[name], m)
			row = append(row, m)
		}
		capMean, _ := res.Mean("cap")
		caps = append(caps, capMean)
		row = append(row, capMean)
		tb.AddRow(row...)
	}
	for _, name := range ratioAlgNames {
		fig.Add(name, xs, series[name])
	}
	fig.Add("Σw cap", xs, caps)
	out := &Output{Tables: []*report.Table{tb}, Figures: []*report.Figure{fig}}
	out.Notes = append(out.Notes,
		"Every curve is non-decreasing in r; the algorithms separate most where coverage is scarce",
		"(r ≲ 1) and converge toward the Σw cap as disks swallow the region — bracketing the paper's",
		"three sampled radii.")
	return out, nil
}

// RunWeightSkew varies the weight scheme from uniform (W = 1) to highly
// skewed (integer weights in [1, W]) and reports each algorithm's share of
// the achievable reward. greedy3 keys on single-point weight, so skew helps
// it; the coverage-aware algorithms are robust across the sweep — locating
// where the paper's "different weight" scheme matters.
func RunWeightSkew(ctx context.Context, cfg RunConfig) (*Output, error) {
	const (
		n = 40
		k = 4
		r = 1.0
	)
	maxWeights := []int{1, 2, 5, 10, 20}
	if cfg.Quick {
		maxWeights = []int{1, 5}
	}
	algs := paperAlgorithms()
	tb := report.NewTable(fmt.Sprintf("fraction of Σw captured vs weight skew (n=%d, k=%d, r=%g, 2-norm)", n, k, r),
		"weights 1..W", "greedy1", "greedy2", "greedy3", "greedy4")
	for wi, maxW := range maxWeights {
		maxW := maxW
		res, err := sim.RunTrials(ctx, cfg.trials(), cfg.Workers, cfg.Seed^uint64(wi)<<18^0x5e1f,
			func(ctx context.Context, trial int, rng *xrand.Rand) (map[string]float64, error) {
				pts := make([]vec.V, n)
				ws := make([]float64, n)
				for i := range pts {
					pts[i] = pointset.PaperBox2D().Sample(rng)
					ws[i] = float64(rng.IntRange(1, maxW))
				}
				set, err := pointset.New(pts, ws)
				if err != nil {
					return nil, err
				}
				in, err := cfg.newInstance(set, norm.L2{}, r)
				if err != nil {
					return nil, err
				}
				metrics := map[string]float64{}
				for _, alg := range algs {
					rr, err := alg.Run(ctx, in, k)
					if err != nil {
						return nil, err
					}
					metrics[alg.Name()] = rr.Total / set.TotalWeight()
				}
				return metrics, nil
			})
		if err != nil {
			return nil, err
		}
		row := []interface{}{fmt.Sprintf("1..%d", maxW)}
		for _, name := range ratioAlgNames {
			m, _ := res.Mean(name)
			row = append(row, m)
		}
		tb.AddRow(row...)
	}
	out := &Output{Tables: []*report.Table{tb}}
	out.Notes = append(out.Notes,
		"Values are fractions of the achievable reward Σw. Skewed weights concentrate value on few",
		"users, which lifts greedy3 (it chases exactly those users) relative to the unweighted case,",
		"while the coverage-aware algorithms stay ahead throughout.")
	return out, nil
}
