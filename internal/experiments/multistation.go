package experiments

import (
	"context"
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/pointset"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// RunMultistation compares deployments with the same total broadcast budget:
// one station broadcasting S·k contents versus S stations broadcasting k
// each, with random and interest-aware user assignment. A single station
// with the full budget always has the larger feasible set, so it should win;
// the gap measures the partitioning cost, and interest-aware cells should
// recover part of it on clustered populations.
func RunMultistation(ctx context.Context, cfg RunConfig) (*Output, error) {
	tr, err := trace.Generate(trace.Config{
		N:      80,
		Box:    pointset.PaperBox2D(),
		Kind:   trace.Clustered,
		Scheme: pointset.RandomIntWeight,
		Topics: 4,
		Sigma:  0.3,
	}, xrand.New(cfg.Seed^0x3517))
	if err != nil {
		return nil, err
	}
	periods := 6
	if cfg.Quick {
		periods = 2
	}
	base := broadcast.Config{
		Radius:  1.2,
		Periods: periods,
		Seed:    cfg.Seed ^ 0x3157,
	}
	alg := core.LocalGreedy{Workers: 1}
	const budget = 4 // total broadcasts per period across all stations

	tb := report.NewTable("multi-station deployments under a fixed total budget of 4 broadcasts/period",
		"deployment", "assignment", "mean satisfaction")
	type row struct {
		stations int
		mode     broadcast.AssignMode
	}
	rows := []row{
		{1, broadcast.RandomAssign},
		{2, broadcast.RandomAssign},
		{2, broadcast.NearestAnchor},
		{4, broadcast.RandomAssign},
		{4, broadcast.NearestAnchor},
	}
	for _, r := range rows {
		c := base
		c.K = budget / r.stations
		m, err := broadcast.RunMulti(ctx, tr, alg, c, r.stations, r.mode)
		if err != nil {
			return nil, err
		}
		label := "single station, k=4"
		if r.stations > 1 {
			label = fmt.Sprintf("%d stations, k=%d", r.stations, c.K)
		}
		tb.AddRow(label, r.mode.String(), m.MeanSatisfaction)
	}
	out := &Output{Tables: []*report.Table{tb}}
	out.Notes = append(out.Notes,
		"Same total budget everywhere. The single station dominates (its feasible set contains every",
		"partitioned schedule); interest-aware (nearest-anchor) cells recover part of the partitioning",
		"loss on clustered populations relative to random assignment.")
	return out, nil
}
