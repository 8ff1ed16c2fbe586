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

// benchAppendNear times warm queries that reuse one dst, as the reward
// evaluator's pooled scratch does.
func benchAppendNear(b *testing.B, idx Index, rng *xrand.Rand) {
	queries := make([]vec.V, 256)
	for i := range queries {
		queries[i] = vec.Of(rng.Uniform(0, 100), rng.Uniform(0, 100))
	}
	var dst []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = idx.AppendNear(dst[:0], queries[i%len(queries)])
	}
}

func benchGridAppendNear(b *testing.B, n int, radius float64) {
	rng := xrand.New(2)
	g, err := NewGrid(randPoints(rng, n, 2, 0, 100), radius)
	if err != nil {
		b.Fatal(err)
	}
	benchAppendNear(b, g, rng)
}

func BenchmarkAppendNear_N10000_R1(b *testing.B)  { benchGridAppendNear(b, 10000, 1) }
func BenchmarkAppendNear_N10000_R10(b *testing.B) { benchGridAppendNear(b, 10000, 10) }

func BenchmarkKDTreeAppendNear_N10000_R1(b *testing.B) {
	rng := xrand.New(4)
	tree, err := NewKDTree(randPoints(rng, 10000, 2, 0, 100), 1)
	if err != nil {
		b.Fatal(err)
	}
	benchAppendNear(b, tree, rng)
}

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
