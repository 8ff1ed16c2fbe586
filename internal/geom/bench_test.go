package geom

import (
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

func benchPoints(n, dim int) []vec.V {
	rng := xrand.New(99)
	pts := make([]vec.V, n)
	for i := range pts {
		p := vec.New(dim)
		for d := range p {
			p[d] = rng.Uniform(0, 4)
		}
		pts[i] = p
	}
	return pts
}

func benchMinBall2(b *testing.B, n, dim int) {
	pts := benchPoints(n, dim)
	rng := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinBall2(pts, rng, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinBall2_N40_2D(b *testing.B)   { benchMinBall2(b, 40, 2) }
func BenchmarkMinBall2_N160_3D(b *testing.B)  { benchMinBall2(b, 160, 3) }
func BenchmarkMinBall2_N1000_2D(b *testing.B) { benchMinBall2(b, 1000, 2) }

func BenchmarkApproxMinBall2_N1000(b *testing.B) {
	pts := benchPoints(1000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApproxMinBall2(pts, 0.05, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinBallL1Rotation_N40(b *testing.B) {
	pts := benchPoints(40, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinBallL1in2D(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinBallL1LP_N40_2D(b *testing.B) {
	pts := benchPoints(40, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinBallL1LP(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinBallL1LP_N40_3D(b *testing.B) {
	pts := benchPoints(40, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinBallL1LP(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChebyshevBall_N1000(b *testing.B) {
	pts := benchPoints(1000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ChebyshevBall(pts); err != nil {
			b.Fatal(err)
		}
	}
}
