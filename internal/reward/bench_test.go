package reward

import (
	"context"
	"math"
	"testing"

	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/spatial"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// Candidate-scan benchmarks at large n: the gain hot path every greedy
// spends its time in, through the norm's Within kernel.

func benchInstance(b *testing.B, n, dim int, nm norm.Norm, r, spread float64, grid bool) (*Instance, []float64) {
	b.Helper()
	rng := xrand.New(42)
	pts := make([]vec.V, n)
	ws := make([]float64, n)
	for i := range pts {
		p := vec.New(dim)
		for d := range p {
			p[d] = rng.Uniform(0, spread)
		}
		pts[i] = p
		ws[i] = float64(rng.IntRange(1, 5))
	}
	set, err := pointset.New(pts, ws)
	if err != nil {
		b.Fatal(err)
	}
	in, err := NewInstance(set, nm, r)
	if err != nil {
		b.Fatal(err)
	}
	if grid {
		g, err := spatial.NewGrid(pts, r)
		if err != nil {
			b.Fatal(err)
		}
		in.SetFinder(g)
	}
	y := in.NewResiduals()
	for i := range y {
		y[i] = rng.Uniform(0, 1)
	}
	return in, y
}

func benchRoundGain(b *testing.B, n, dim int, nm norm.Norm, r float64, grid bool) {
	// The paper's density (4-unit box) for full scans; a 12-unit box for the
	// grid variants so the index actually prunes and the gather path is
	// exercised at a realistic candidate fraction.
	spread := 4.0
	if grid {
		spread = 12.0
	}
	in, y := benchInstance(b, n, dim, nm, r, spread, grid)
	c := in.Set.Point(n / 2)
	b.ReportAllocs()
	b.ResetTimer()
	var g float64
	for i := 0; i < b.N; i++ {
		g = in.RoundGain(c, y)
	}
	_ = g
}

func BenchmarkRoundGain_N1000(b *testing.B) {
	benchRoundGain(b, 1000, 2, norm.L2{}, 1, false)
}
func BenchmarkRoundGain_N10000(b *testing.B) {
	benchRoundGain(b, 10000, 2, norm.L2{}, 1, false)
}
func BenchmarkRoundGain_N10000_L1(b *testing.B) {
	benchRoundGain(b, 10000, 2, norm.L1{}, 1, false)
}
func BenchmarkRoundGain_N10000_3D(b *testing.B) {
	benchRoundGain(b, 10000, 3, norm.L2{}, 1.5, false)
}
func BenchmarkRoundGain_Grid_N10000(b *testing.B) {
	benchRoundGain(b, 10000, 2, norm.L2{}, 1, true)
}

// First-round benchmarks at the shape of one part of an n = 100,000,
// 8-shard solve: 15,000 users at 6,250 per unit² (a square of side √2.4),
// r = 0.0632, L2, warm grid, fresh residuals. PerPoint is the loop
// LazyGreedy ran before RoundGains: one RoundGain per candidate.
func benchFirstRound(b *testing.B, sweep bool) {
	in, _ := benchInstance(b, 15000, 2, norm.L2{}, 0.0632, math.Sqrt(2.4), true)
	y := in.NewResiduals()
	gains := make([]float64, in.N())
	ctx := context.Background()
	run := func() {
		if sweep {
			if err := in.RoundGains(ctx, y, gains); err != nil {
				b.Fatal(err)
			}
			return
		}
		for a := range gains {
			gains[a] = in.RoundGain(in.Set.Point(a), y)
		}
	}
	run() // fills the grid's window cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkRoundGains(b *testing.B)        { benchFirstRound(b, true) }
func BenchmarkRoundGainPerPoint(b *testing.B) { benchFirstRound(b, false) }

func benchObjective(b *testing.B, n, k int) {
	in, _ := benchInstance(b, n, 2, norm.L2{}, 1, 4, false)
	rng := xrand.New(7)
	centers := make([]vec.V, k)
	for j := range centers {
		centers[j] = vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var f float64
	for i := 0; i < b.N; i++ {
		f = in.Objective(centers)
	}
	_ = f
}

func BenchmarkObjective_N10000_K8(b *testing.B) { benchObjective(b, 10000, 8) }

func benchEvaluatorReplace(b *testing.B, n int) {
	in, _ := benchInstance(b, n, 2, norm.L2{}, 1, 4, false)
	rng := xrand.New(9)
	centers := make([]vec.V, 6)
	for j := range centers {
		centers[j] = vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4))
	}
	e, err := NewEvaluator(in, centers)
	if err != nil {
		b.Fatal(err)
	}
	cands := make([]vec.V, 64)
	for j := range cands {
		cands[j] = vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Replace(i%len(centers), cands[i%len(cands)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatorReplace_N10000(b *testing.B) { benchEvaluatorReplace(b, 10000) }
