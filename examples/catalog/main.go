// Catalog example: a deployable station cannot synthesize arbitrary content
// — it broadcasts items from a finite library. This example measures what a
// catalog costs relative to the paper's idealized continuous placement, as
// the library grows from 4 items to a dense lattice, and compares single-
// versus multi-station deployments under one broadcast budget.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/pointset"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func main() {
	ctx := context.Background()
	tr, err := trace.Generate(trace.Config{
		N:      70,
		Box:    pointset.PaperBox2D(),
		Kind:   trace.ZipfTopics,
		Scheme: pointset.RandomIntWeight,
		Topics: 5,
		Sigma:  0.3,
	}, xrand.New(21))
	if err != nil {
		log.Fatal(err)
	}
	cfg := broadcast.Config{K: 3, Radius: 1.2, Periods: 8, DriftSigma: 0.1, Seed: 5}
	inner := core.ComplexGreedy{}

	// Catalog sweep: corners only → coarse lattice → dense lattice → free.
	corners := []vec.V{vec.Of(0.5, 0.5), vec.Of(3.5, 0.5), vec.Of(0.5, 3.5), vec.Of(3.5, 3.5)}
	coarse, err := pointset.GridPoints(pointset.PaperBox2D(), 4)
	if err != nil {
		log.Fatal(err)
	}
	dense, err := pointset.GridPoints(pointset.PaperBox2D(), 12)
	if err != nil {
		log.Fatal(err)
	}
	tb := report.NewTable("catalog size vs satisfaction (greedy4 proposals, k=3, 8 periods)",
		"catalog", "items", "mean satisfaction")
	for _, c := range []struct {
		name  string
		items []vec.V
	}{
		{"corners", corners},
		{"4x4 lattice", coarse},
		{"12x12 lattice", dense},
	} {
		m, err := broadcast.Run(ctx, tr, broadcast.Catalog{Inner: inner, Items: c.items}, cfg)
		if err != nil {
			log.Fatal(err)
		}
		tb.AddRow(c.name, len(c.items), m.MeanSatisfaction)
	}
	free, err := broadcast.Run(ctx, tr, inner, cfg)
	if err != nil {
		log.Fatal(err)
	}
	tb.AddRow("unconstrained (paper's model)", "∞", free.MeanSatisfaction)
	fmt.Print(tb.Render())

	// Multi-station view: split the same budget across stations.
	fmt.Println()
	tb2 := report.NewTable("same 3-broadcast budget, partitioned across stations",
		"deployment", "mean satisfaction")
	single, err := broadcast.RunMulti(ctx, tr, inner, cfg, 1, broadcast.RandomAssign)
	if err != nil {
		log.Fatal(err)
	}
	tb2.AddRow("1 station × k=3", single.MeanSatisfaction)
	cfg3 := cfg
	cfg3.K = 1
	triple, err := broadcast.RunMulti(ctx, tr, inner, cfg3, 3, broadcast.NearestAnchor)
	if err != nil {
		log.Fatal(err)
	}
	tb2.AddRow("3 stations × k=1 (interest cells)", triple.MeanSatisfaction)
	fmt.Print(tb2.Render())
}
