package experiments

import (
	"context"
	"fmt"

	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// figReward builds the driver for the paper's Figs. 8–9: the 4×4×4 3-D box
// under the 1-norm, n ∈ {40, 160}, reporting the absolute total reward each
// algorithm gains per (k, r) configuration (the paper does not compute an
// exhaustive baseline in 3-D).
func figReward(id string, scheme pointset.WeightScheme) func(context.Context, RunConfig) (*Output, error) {
	return func(ctx context.Context, cfg RunConfig) (*Output, error) {
		nm := norm.L1{}
		out := &Output{}
		for _, n := range []int{40, 160} {
			fig := &report.Figure{
				ID:     fmt.Sprintf("%s-n%d", id, n),
				Title:  fmt.Sprintf("total reward, 3-D, %s, %s, n=%d", nm.Name(), scheme, n),
				XLabel: "configuration index (k=2,r=1 | k=2,r=1.5 | k=2,r=2 | k=4,r=1 | k=4,r=1.5 | k=4,r=2)",
				YLabel: "total reward",
			}
			tb := report.NewTable(
				fmt.Sprintf("%s data, 3-D, %s, %s, n=%d", id, nm.Name(), scheme, n),
				"config", "greedy1", "greedy2", "greedy3", "greedy4", "max (Σw)")

			grid := configGrid()
			xs := make([]float64, len(grid))
			series := map[string][]float64{}
			for ci, c := range grid {
				xs[ci] = float64(ci + 1)
				res, err := sim.RunTrials(ctx, cfg.trials(), cfg.Workers, cfg.Seed^(uint64(ci)<<16)^0x3d,
					func(ctx context.Context, trial int, rng *xrand.Rand) (map[string]float64, error) {
						set, err := pointset.GenUniform(n, pointset.PaperBox3D(), scheme, rng)
						if err != nil {
							return nil, err
						}
						in, err := cfg.newInstance(set, nm, c.R)
						if err != nil {
							return nil, err
						}
						metrics := map[string]float64{"maxreward": set.TotalWeight()}
						for _, alg := range paperAlgorithms() {
							r, err := alg.Run(ctx, in, c.K)
							if err != nil {
								return nil, err
							}
							metrics[alg.Name()] = r.Total
						}
						return metrics, nil
					})
				if err != nil {
					return nil, err
				}
				row := []interface{}{c.String()}
				for _, alg := range ratioAlgNames {
					m, ok := res.Mean(alg)
					if !ok {
						return nil, fmt.Errorf("experiments: metric %q missing", alg)
					}
					series[alg] = append(series[alg], m)
					row = append(row, m)
				}
				maxR, _ := res.Mean("maxreward")
				row = append(row, maxR)
				tb.AddRow(row...)
			}
			for _, alg := range ratioAlgNames {
				fig.Add("reward "+alg, xs, series[alg])
			}
			out.Figures = append(out.Figures, fig)
			out.Tables = append(out.Tables, tb)

			// Terminal rendition of the paper's grouped-bar panels.
			groups := make([]string, len(grid))
			for gi, c := range grid {
				groups[gi] = c.String()
			}
			bar := report.NewBarChart(fmt.Sprintf("%s bars, n=%d", id, n), groups...)
			for _, alg := range ratioAlgNames {
				bar.AddSeries(alg, series[alg]...)
			}
			out.Notes = append(out.Notes, bar.Render(40))
		}
		out.Notes = append(out.Notes,
			"Expected shape (paper §VI.B.4, labels normalized to Table I's ordering):",
			"greedy4 collects the most reward in 3-D/1-norm; greedy2 follows; greedy3 trails, with",
			"the gap widening at small r where single-point placement wastes coverage.")
		return out, nil
	}
}
