// Quickstart: build a small user population, pick k broadcast contents with
// each of the paper's algorithms, and compare against the exhaustive
// optimum. This is the five-minute tour of the library's public surface:
// pointset → reward.Instance → core algorithms → exhaustive baseline.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/exhaustive"
	"repro/internal/norm"
	"repro/internal/optimize"
	"repro/internal/pointset"
	"repro/internal/report"
	"repro/internal/reward"
	"repro/internal/solver"
	"repro/internal/xrand"
)

func main() {
	ctx := context.Background()
	// 1. A population: 20 users uniformly spread over the paper's 4×4
	//    interest plane, with random integer happiness caps in 1..5.
	rng := xrand.New(2011) // the paper's year; any seed reproduces exactly
	users, err := pointset.GenUniform(20, pointset.PaperBox2D(), pointset.RandomIntWeight, rng)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The problem instance: Euclidean interest distance, contents cover
	//    a disk of radius 1.5, and the station may broadcast k = 3 times.
	in, err := reward.NewInstance(users, norm.L2{}, 1.5)
	if err != nil {
		log.Fatal(err)
	}
	const k = 3

	// 3. Run all four algorithms from the paper.
	algs := []core.Algorithm{
		core.RoundBased{Solver: optimize.Multistart{}}, // Algorithm 1
		core.LocalGreedy{},   // Algorithm 2
		core.SimpleGreedy{},  // Algorithm 3
		core.ComplexGreedy{}, // Algorithm 4
	}
	tb := report.NewTable(fmt.Sprintf("k=%d broadcasts for %d users (Σw = %.0f)", k, users.Len(), users.TotalWeight()),
		"algorithm", "round gains", "total", "ratio vs exhaustive")

	// 4. The exhaustive baseline the paper divides by.
	ex, err := exhaustive.Solve(ctx, in, k, solver.Options{GridPer: 5, Box: pointset.PaperBox2D(), Polish: true})
	if err != nil {
		log.Fatal(err)
	}

	for _, a := range algs {
		res, err := a.Run(ctx, in, k)
		if err != nil {
			log.Fatal(err)
		}
		gains := ""
		for j, g := range res.Gains {
			if j > 0 {
				gains += " "
			}
			gains += fmt.Sprintf("%.2f", g)
		}
		tb.AddRow(res.Algorithm, gains, res.Total, res.Total/ex.Total)
	}
	tb.AddRow("exhaustive", "", ex.Total, 1.0)
	fmt.Print(tb.Render())

	fmt.Println("\nselected contents (greedy4):")
	res, err := (core.ComplexGreedy{}).Run(ctx, in, k)
	if err != nil {
		log.Fatal(err)
	}
	for j, c := range res.Centers {
		fmt.Printf("  broadcast %d at interest point %v\n", j+1, c)
	}
}
