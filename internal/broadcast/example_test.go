package broadcast_test

import (
	"context"
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/pointset"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// A base station serving 40 users for 4 periods with the paper's local
// greedy choosing each period's broadcasts.
func Example() {
	tr, _ := trace.Generate(trace.Config{
		N: 40, Box: pointset.PaperBox2D(), Kind: trace.Uniform,
		Scheme: pointset.UnitWeight,
	}, xrand.New(1))
	m, _ := broadcast.Run(context.Background(), tr, core.LocalGreedy{},
		broadcast.Config{K: 2, Radius: 1.5, Periods: 4, Seed: 1})
	fmt.Println("algorithm:", m.Algorithm)
	fmt.Println("periods:", len(m.Periods))
	fmt.Printf("satisfaction in (0,1]: %v\n", m.MeanSatisfaction > 0 && m.MeanSatisfaction <= 1)
	// Output:
	// algorithm: greedy2
	// periods: 4
	// satisfaction in (0,1]: true
}

// Recording a timeline and replaying it is bit-deterministic: the population
// evolution is fixed up front, so two replays agree exactly.
func ExampleRunTimeline() {
	tr, _ := trace.Generate(trace.Config{
		N: 20, Box: pointset.PaperBox2D(), Kind: trace.Clustered,
		Scheme: pointset.UnitWeight,
	}, xrand.New(2))
	tl, _ := trace.RecordTimeline(tr, 3, 0.2, xrand.New(3))
	cfg := broadcast.Config{K: 2, Radius: 1.2}
	a, _ := broadcast.RunTimeline(context.Background(), tl, core.SimpleGreedy{}, cfg)
	b, _ := broadcast.RunTimeline(context.Background(), tl, core.SimpleGreedy{}, cfg)
	fmt.Println("replays identical:", a.MeanSatisfaction == b.MeanSatisfaction)
	// Output:
	// replays identical: true
}
