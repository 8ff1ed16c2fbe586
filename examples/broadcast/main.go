// Broadcast example: the motivating system of the paper end to end. A base
// station serves a Zipf-topic user population across many periods while
// interests drift and users churn; we compare adaptive greedy schedules
// against a static one and sweep k to expose the satisfaction-versus-
// service-frequency tradeoff (paper §III.A).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/pointset"
	"repro/internal/report"
	"repro/internal/reward"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func main() {
	ctx := context.Background()
	// A community-structured population: most users care about a few
	// mainstream topics (music, sports, ...), modeled as Zipf-popular
	// clusters in the 4×4 interest plane.
	tr, err := trace.Generate(trace.Config{
		N:      80,
		Box:    pointset.PaperBox2D(),
		Kind:   trace.ZipfTopics,
		Scheme: pointset.RandomIntWeight,
		Topics: 6,
		Sigma:  0.35,
	}, xrand.New(7))
	if err != nil {
		log.Fatal(err)
	}

	cfg := broadcast.Config{
		K:          3,
		Radius:     1.2,
		Periods:    12,
		DriftSigma: 0.15,
		ChurnRate:  0.08,
		Seed:       99,
	}

	// Adaptive scheduling with the paper's local greedy vs a static
	// station that always replays the same three contents.
	corners := []vec.V{vec.Of(1, 1), vec.Of(3, 3), vec.Of(1, 3)}
	algs := []core.Algorithm{
		core.LocalGreedy{},
		core.ComplexGreedy{},
		core.Placement{Label: "static-corners", Place: func(*reward.Instance, int) ([]vec.V, error) {
			return corners, nil
		}},
	}
	tb := report.NewTable("12 periods, 80 Zipf users, k=3, r=1.2, drift+churn",
		"scheduler", "mean satisfaction", "fairness", "satisfaction/slot")
	for _, alg := range algs {
		m, err := broadcast.Run(ctx, tr, alg, cfg)
		if err != nil {
			log.Fatal(err)
		}
		tb.AddRow(m.Algorithm, m.MeanSatisfaction, m.Fairness, m.SatisfactionPerSlot)
	}
	fmt.Print(tb.Render())

	// The k tradeoff: more broadcasts per period satisfy more interests
	// but each user is served less often under a fixed slot budget.
	cfg.SlotsPerPeriod = 12
	sweep, err := broadcast.KSweep(ctx, tr, core.LocalGreedy{}, cfg, 6)
	if err != nil {
		log.Fatal(err)
	}
	tb2 := report.NewTable("k sweep under a 12-slot period budget (greedy2)",
		"k", "mean satisfaction", "service frequency", "satisfaction/slot")
	for i, m := range sweep {
		tb2.AddRow(i+1, m.MeanSatisfaction, m.ServiceFrequency, m.SatisfactionPerSlot)
	}
	fmt.Println()
	fmt.Print(tb2.Render())
}
