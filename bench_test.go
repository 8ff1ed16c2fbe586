package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/exhaustive"
	"repro/internal/experiments"
	"repro/internal/norm"
	"repro/internal/optimize"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/solver"
	"repro/internal/xrand"
)

// Experiment benches: each regenerates one paper artifact end to end
// (workload generation → algorithms → baseline → aggregation). They run the
// drivers in quick mode so `go test -bench=.` stays tractable; use
// cmd/cdbench for full-fidelity runs.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.RunConfig{Seed: 42, Quick: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Tables)+len(out.Figures)+len(out.Notes) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

func BenchmarkFig2(b *testing.B)               { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)               { benchExperiment(b, "fig3") }
func BenchmarkTable1(b *testing.B)             { benchExperiment(b, "table1") }
func BenchmarkFig4(b *testing.B)               { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)               { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)               { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)               { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)               { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)               { benchExperiment(b, "fig9") }
func BenchmarkSummary(b *testing.B)            { benchExperiment(b, "summary") }
func BenchmarkTradeoff(b *testing.B)           { benchExperiment(b, "tradeoff") }
func BenchmarkAblationExhaustive(b *testing.B) { benchExperiment(b, "ablation-exhaustive") }
func BenchmarkAblationBallMode(b *testing.B)   { benchExperiment(b, "ablation-ballmode") }
func BenchmarkAblationInner(b *testing.B)      { benchExperiment(b, "ablation-inner") }
func BenchmarkAblationScale(b *testing.B)      { benchExperiment(b, "ablation-scale") }
func BenchmarkValidate(b *testing.B)           { benchExperiment(b, "validate") }
func BenchmarkMultistation(b *testing.B)       { benchExperiment(b, "multistation") }
func BenchmarkKCurve(b *testing.B)             { benchExperiment(b, "kcurve") }
func BenchmarkComplexity(b *testing.B)         { benchExperiment(b, "complexity") }
func BenchmarkBaselines(b *testing.B)          { benchExperiment(b, "baselines") }
func BenchmarkRadiusCurve(b *testing.B)        { benchExperiment(b, "radiuscurve") }
func BenchmarkWeightSkew(b *testing.B)         { benchExperiment(b, "weightskew") }

// Algorithm micro-benches at the paper's headline scale: 40 nodes, 4×4 box,
// random weights, k = 4, r = 1 (the Fig. 3 / Table I instance shape). These
// expose the O(kn), O(kn²), O(kn³) complexity separation of Theorems 3–4.

func paperInstance(b *testing.B, n, dim int, nm norm.Norm, r float64) *reward.Instance {
	b.Helper()
	box := pointset.PaperBox2D()
	if dim == 3 {
		box = pointset.PaperBox3D()
	}
	set, err := pointset.GenUniform(n, box, pointset.RandomIntWeight, xrand.New(42))
	if err != nil {
		b.Fatal(err)
	}
	in, err := reward.NewInstance(set, nm, r)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func benchAlgorithm(b *testing.B, alg core.Algorithm, n, dim, k int, nm norm.Norm, r float64) {
	b.Helper()
	in := paperInstance(b, n, dim, nm, r)
	b.ReportAllocs()
	b.ResetTimer()
	var total float64
	for i := 0; i < b.N; i++ {
		res, err := alg.Run(context.Background(), in, k)
		if err != nil {
			b.Fatal(err)
		}
		total = res.Total
	}
	b.ReportMetric(total, "reward")
}

func BenchmarkGreedy1_N40(b *testing.B) {
	benchAlgorithm(b, core.RoundBased{Solver: optimize.Multistart{Workers: 1}}, 40, 2, 4, norm.L2{}, 1)
}
func BenchmarkGreedy2_N40(b *testing.B) {
	benchAlgorithm(b, core.LocalGreedy{Workers: 1}, 40, 2, 4, norm.L2{}, 1)
}
func BenchmarkGreedy3_N40(b *testing.B) {
	benchAlgorithm(b, core.SimpleGreedy{}, 40, 2, 4, norm.L2{}, 1)
}
func BenchmarkGreedy4_N40(b *testing.B) {
	benchAlgorithm(b, core.ComplexGreedy{Workers: 1}, 40, 2, 4, norm.L2{}, 1)
}
func BenchmarkGreedy2_N160_3D(b *testing.B) {
	benchAlgorithm(b, core.LocalGreedy{Workers: 1}, 160, 3, 4, norm.L1{}, 1.5)
}
func BenchmarkGreedy3_N160_3D(b *testing.B) {
	benchAlgorithm(b, core.SimpleGreedy{}, 160, 3, 4, norm.L1{}, 1.5)
}
func BenchmarkGreedy4_N160_3D(b *testing.B) {
	benchAlgorithm(b, core.ComplexGreedy{Workers: 1}, 160, 3, 4, norm.L1{}, 1.5)
}

// Exhaustive baseline benches: the cost of the ratio denominators, serial vs
// parallel enumeration (the ablation DESIGN.md calls out).

func benchExhaustive(b *testing.B, workers, gridPer int) {
	in := paperInstance(b, 40, 2, norm.L2{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := exhaustive.Solve(context.Background(), in, 4, solver.Options{
			GridPer: gridPer, Box: pointset.PaperBox2D(), Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustiveN40K4Serial(b *testing.B)   { benchExhaustive(b, 1, 0) }
func BenchmarkExhaustiveN40K4Parallel(b *testing.B) { benchExhaustive(b, 0, 0) }
func BenchmarkExhaustiveN40K4Grid5(b *testing.B)    { benchExhaustive(b, 0, 5) }
