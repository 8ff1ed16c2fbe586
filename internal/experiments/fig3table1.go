package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/report"
	"repro/internal/xrand"
)

// fig3Instance builds the worked example of Fig. 3 / Table I: 40 nodes in
// the 4×4 2-D box with random integer weights 1..5, 2-norm distance, k = 4
// disks of radius 1. The paper does not publish the node coordinates, so the
// instance is regenerated from the experiment seed; the qualitative
// structure (greedy 4 > greedy 2 > greedy 3 per round) is seed-independent.
func fig3Instance(ctx context.Context, cfg RunConfig) (*core.Result, *core.Result, *core.Result, *pointset.Set, error) {
	rng := xrand.New(cfg.Seed ^ 0xf163)
	set, err := pointset.GenUniform(40, pointset.PaperBox2D(), pointset.RandomIntWeight, rng)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	in, err := cfg.newInstance(set, norm.L2{}, 1)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	const k = 4
	r2, err := core.LocalGreedy{Workers: 1}.Run(ctx, in, k)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	r3, err := core.SimpleGreedy{}.Run(ctx, in, k)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	r4, err := core.ComplexGreedy{Workers: 1}.Run(ctx, in, k)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return r2, r3, r4, set, nil
}

// RunTable1 regenerates Table I: the coverage reward gained in each of the
// four rounds by greedy 2, greedy 3, and greedy 4 on the worked example,
// plus the totals.
func RunTable1(ctx context.Context, cfg RunConfig) (*Output, error) {
	r2, r3, r4, _, err := fig3Instance(ctx, cfg)
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("Table I: per-round coverage reward (40 nodes, 4x4, 2-norm, k=4, r=1)",
		"Coverage reward", "1", "2", "3", "4", "Total")
	for _, r := range []*core.Result{r2, r3, r4} {
		label := map[string]string{"greedy2": "Greedy 2", "greedy3": "Greedy 3", "greedy4": "Greedy 4"}[r.Algorithm]
		tb.AddRow(label, r.Gains[0], r.Gains[1], r.Gains[2], r.Gains[3], r.Total)
	}
	out := &Output{Tables: []*report.Table{tb}}
	out.Notes = append(out.Notes,
		"Paper's Table I (its own instance): greedy2 44.63, greedy3 37.84, greedy4 63.56.",
		"Expected shape: greedy4 total > greedy2 total > greedy3 total, and round gains non-increasing for greedy2.")
	return out, nil
}

// RunFig3 regenerates Fig. 3 as ASCII scatter plots. The paper's figure has
// one panel per round per algorithm — (a)–(d) greedy 2, (e)–(h) greedy 3,
// (i)–(l) greedy 4 — showing the centers accumulated so far; this driver
// renders the same 12-panel progression.
func RunFig3(ctx context.Context, cfg RunConfig) (*Output, error) {
	r2, r3, r4, set, err := fig3Instance(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := &Output{}
	panel := 'a'
	for _, r := range []*core.Result{r2, r3, r4} {
		prefixes := r.PrefixTotals()
		for j := 1; j <= len(r.Centers); j++ {
			sc, err := report.NewScatter(0, 4, 0, 4, 64, 24)
			if err != nil {
				return nil, err
			}
			for i := 0; i < set.Len(); i++ {
				sc.Plot(set.Point(i), report.WeightGlyph(set.Weight(i)))
			}
			for _, c := range r.Centers[:j] {
				sc.Plot(c, '@')
			}
			out.Notes = append(out.Notes, fmt.Sprintf(
				"Fig. 3(%c) — %s after round %d (cumulative reward %.4f):\n%s",
				panel, r.Algorithm, j, prefixes[j-1], sc.Render()))
			panel++
		}
	}
	return out, nil
}
