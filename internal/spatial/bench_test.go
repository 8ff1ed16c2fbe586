package spatial

import (
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

func BenchmarkNewGrid_N10000(b *testing.B) {
	rng := xrand.New(1)
	pts := randPoints(rng, 10000, 2, 0, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewGrid(pts, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewGrid_N100000 indexes one perfbench solve-large instance's
// shape: 100,000 users uniform in the paper's 4×4 box at r = 0.0632.
func BenchmarkNewGrid_N100000(b *testing.B) {
	pts := randPoints(xrand.New(1), 100000, 2, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewGrid(pts, 0.0632); err != nil {
			b.Fatal(err)
		}
	}
}

// benchColdWindows times one window query per point on a fresh grid, as
// the first-round gain sweep makes them, at one part's shape of an 8-shard
// solve-large request: 15,000 users at 6,250 per unit² (a 4 × 0.6 strip),
// r = 0.0632. bulk fills every window first; otherwise each cell's window
// is built on its first query.
func benchColdWindows(b *testing.B, bulk bool) {
	pts := randPoints(xrand.New(6), 15000, 2, 0, 4)
	for _, p := range pts {
		p[1] *= 0.15
	}
	var dst []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := NewGrid(pts, 0.0632)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if bulk {
			g.FillWindows()
		}
		for _, p := range pts {
			dst = g.AppendNear(dst[:0], p)
		}
	}
}

func BenchmarkColdWindows_N15000_Bulk(b *testing.B) { benchColdWindows(b, true) }
func BenchmarkColdWindows_N15000_Lazy(b *testing.B) { benchColdWindows(b, false) }

// benchGridAppendNear times warm queries that reuse one dst, as the reward
// evaluator's pooled scratch does.
func benchGridAppendNear(b *testing.B, n int, radius float64) {
	rng := xrand.New(2)
	g, err := NewGrid(randPoints(rng, n, 2, 0, 100), radius)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]vec.V, 256)
	for i := range queries {
		queries[i] = vec.Of(rng.Uniform(0, 100), rng.Uniform(0, 100))
	}
	var dst []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.AppendNear(dst[:0], queries[i%len(queries)])
	}
}

func BenchmarkAppendNear_N10000_R1(b *testing.B)  { benchGridAppendNear(b, 10000, 1) }
func BenchmarkAppendNear_N10000_R10(b *testing.B) { benchGridAppendNear(b, 10000, 10) }

// Baseline for comparison: the full linear scan the index replaces.
func BenchmarkLinearScan_N10000(b *testing.B) {
	rng := xrand.New(3)
	pts := randPoints(rng, 10000, 2, 0, 100)
	q := vec.Of(50, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for _, p := range pts {
			dx, dy := p[0]-q[0], p[1]-q[1]
			if dx*dx+dy*dy <= 1 {
				count++
			}
		}
		_ = count
	}
}
