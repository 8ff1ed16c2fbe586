package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/norm"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func TestMinBall2Trivial(t *testing.T) {
	rng := xrand.New(1)
	b, err := MinBall2([]vec.V{vec.Of(1, 2)}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Radius != 0 || !b.Center.Equal(vec.Of(1, 2)) {
		t.Fatalf("single point ball = %+v", b)
	}

	b, err = MinBall2([]vec.V{vec.Of(0, 0), vec.Of(2, 0)}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Center.ApproxEqual(vec.Of(1, 0), 1e-9) || math.Abs(b.Radius-1) > 1e-9 {
		t.Fatalf("two point ball = %+v", b)
	}
}

func TestMinBall2EquilateralTriangle(t *testing.T) {
	// Equilateral triangle with side 1: circumradius 1/sqrt(3).
	pts := []vec.V{
		vec.Of(0, 0),
		vec.Of(1, 0),
		vec.Of(0.5, math.Sqrt(3)/2),
	}
	b, err := MinBall2(pts, xrand.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / math.Sqrt(3)
	if math.Abs(b.Radius-want) > 1e-9 {
		t.Fatalf("radius = %v, want %v", b.Radius, want)
	}
	if !b.Center.ApproxEqual(vec.Of(0.5, math.Sqrt(3)/6), 1e-9) {
		t.Fatalf("center = %v", b.Center)
	}
}

func TestMinBall2ObtuseTriangle(t *testing.T) {
	// For an obtuse triangle the SEB is the diameter of the longest side,
	// not the circumcircle.
	pts := []vec.V{vec.Of(0, 0), vec.Of(10, 0), vec.Of(5, 0.1)}
	b, err := MinBall2(pts, xrand.New(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Radius-5) > 1e-6 {
		t.Fatalf("radius = %v, want 5", b.Radius)
	}
}

func TestMinBall2Degenerate(t *testing.T) {
	// Duplicates and collinear points must not break the support solver.
	pts := []vec.V{
		vec.Of(1, 1), vec.Of(1, 1), vec.Of(1, 1),
		vec.Of(3, 1), vec.Of(2, 1),
	}
	b, err := MinBall2(pts, xrand.New(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Radius-1) > 1e-9 {
		t.Fatalf("radius = %v, want 1", b.Radius)
	}
	l2 := norm.L2{}
	for _, p := range pts {
		if !b.Contains(l2, p) {
			t.Fatalf("point %v outside ball %+v", p, b)
		}
	}
}

func TestMinBall2ThreeD(t *testing.T) {
	// Regular tetrahedron vertices: circumradius sqrt(3/8)·side.
	pts := []vec.V{
		vec.Of(1, 1, 1),
		vec.Of(1, -1, -1),
		vec.Of(-1, 1, -1),
		vec.Of(-1, -1, 1),
	}
	b, err := MinBall2(pts, xrand.New(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Center.ApproxEqual(vec.Of(0, 0, 0), 1e-9) {
		t.Fatalf("center = %v", b.Center)
	}
	if math.Abs(b.Radius-math.Sqrt(3)) > 1e-9 {
		t.Fatalf("radius = %v, want sqrt(3)", b.Radius)
	}
}

func TestMinBall2Empty(t *testing.T) {
	if _, err := MinBall2(nil, xrand.New(1), nil); err != ErrNoPoints {
		t.Fatalf("err = %v, want ErrNoPoints", err)
	}
}

func TestMinBall2DimMismatch(t *testing.T) {
	if _, err := MinBall2([]vec.V{vec.Of(1), vec.Of(1, 2)}, xrand.New(1), nil); err == nil {
		t.Fatal("dimension mismatch not detected")
	}
}

// Property: the Welzl ball contains all points and no strictly smaller ball
// centered at the centroid or any input point does.
func TestMinBall2Property(t *testing.T) {
	rng := xrand.New(99)
	l2 := norm.L2{}
	for trial := 0; trial < 200; trial++ {
		n := rng.IntRange(1, 25)
		dim := rng.IntRange(1, 4)
		pts := make([]vec.V, n)
		for i := range pts {
			p := vec.New(dim)
			for d := range p {
				p[d] = rng.Uniform(-10, 10)
			}
			pts[i] = p
		}
		b, err := MinBall2(pts, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if d := l2.Dist(b.Center, p); d > b.Radius*(1+1e-8)+1e-9 {
				t.Fatalf("trial %d: point %v at %v outside radius %v", trial, p, d, b.Radius)
			}
		}
		// Minimality check: every candidate center has covering radius >= b.Radius.
		check := func(c vec.V) {
			var r float64
			for _, p := range pts {
				if d := l2.Dist(c, p); d > r {
					r = d
				}
			}
			if r < b.Radius*(1-1e-8)-1e-9 {
				t.Fatalf("trial %d: center %v beats Welzl ball: %v < %v", trial, c, r, b.Radius)
			}
		}
		cen, _ := vec.Centroid(pts)
		check(cen)
		for _, p := range pts {
			check(p)
		}
	}
}

func TestChebyshevBall(t *testing.T) {
	pts := []vec.V{vec.Of(0, 0), vec.Of(4, 2)}
	b, err := ChebyshevBall(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Center.ApproxEqual(vec.Of(2, 1), 1e-12) || math.Abs(b.Radius-2) > 1e-12 {
		t.Fatalf("ChebyshevBall = %+v", b)
	}
	linf := norm.LInf{}
	for _, p := range pts {
		if !b.Contains(linf, p) {
			t.Fatalf("point %v outside", p)
		}
	}
	if _, err := ChebyshevBall(nil); err != ErrNoPoints {
		t.Fatalf("empty err = %v", err)
	}
}

func TestProjectionBallCoversUnderNorm(t *testing.T) {
	rng := xrand.New(7)
	l1 := norm.L1{}
	for trial := 0; trial < 100; trial++ {
		n := rng.IntRange(1, 15)
		pts := make([]vec.V, n)
		for i := range pts {
			pts[i] = vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4), rng.Uniform(0, 4))
		}
		b, err := ProjectionBall(l1, pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if !b.Contains(l1, p) {
				t.Fatalf("projection ball does not cover %v", p)
			}
		}
	}
}

func TestMinBallL1in2DKnown(t *testing.T) {
	// Two points on a diagonal: L1 ball centered at midpoint.
	pts := []vec.V{vec.Of(0, 0), vec.Of(2, 2)}
	b, err := MinBallL1in2D(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Radius-2) > 1e-9 {
		t.Fatalf("radius = %v, want 2", b.Radius)
	}
	l1 := norm.L1{}
	for _, p := range pts {
		if !b.Contains(l1, p) {
			t.Fatalf("point %v outside", p)
		}
	}
}

// Property: the rotated-L∞ construction yields a valid L1 enclosing ball that
// is never worse than the projection heuristic.
func TestMinBallL1in2DOptimality(t *testing.T) {
	rng := xrand.New(17)
	l1 := norm.L1{}
	for trial := 0; trial < 200; trial++ {
		n := rng.IntRange(1, 20)
		pts := make([]vec.V, n)
		for i := range pts {
			pts[i] = vec.Of(rng.Uniform(-5, 5), rng.Uniform(-5, 5))
		}
		exact, err := MinBallL1in2D(pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if !exact.Contains(l1, p) {
				t.Fatalf("exact L1 ball misses %v", p)
			}
		}
		proj, err := ProjectionBall(l1, pts)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Radius > proj.Radius*(1+1e-9)+1e-12 {
			t.Fatalf("trial %d: exact radius %v > projection radius %v", trial, exact.Radius, proj.Radius)
		}
	}
}

func TestMinBallL1in2DRejectsWrongDim(t *testing.T) {
	if _, err := MinBallL1in2D([]vec.V{vec.Of(1, 2, 3)}); err == nil {
		t.Fatal("accepted 3-D point")
	}
	if _, err := MinBallL1in2D(nil); err != ErrNoPoints {
		t.Fatalf("empty err = %v", err)
	}
}

func TestApproxMinBall2CloseToExact(t *testing.T) {
	rng := xrand.New(23)
	for trial := 0; trial < 50; trial++ {
		n := rng.IntRange(2, 30)
		pts := make([]vec.V, n)
		for i := range pts {
			pts[i] = vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4))
		}
		exact, err := MinBall2(pts, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := ApproxMinBall2(pts, 0.05, nil)
		if err != nil {
			t.Fatal(err)
		}
		if approx.Radius < exact.Radius*(1-1e-9) {
			t.Fatalf("approx radius %v below exact %v", approx.Radius, exact.Radius)
		}
		if approx.Radius > exact.Radius*1.2+1e-9 {
			t.Fatalf("approx radius %v too loose vs exact %v", approx.Radius, exact.Radius)
		}
	}
	if _, err := ApproxMinBall2(nil, 0.1, nil); err != ErrNoPoints {
		t.Fatal("empty not rejected")
	}
}

func TestEnclosingBallDispatch(t *testing.T) {
	pts := []vec.V{vec.Of(0, 0), vec.Of(1, 1), vec.Of(2, 0)}
	rng := xrand.New(31)
	for _, n := range []norm.Norm{norm.L1{}, norm.L2{}, norm.LInf{}, norm.LP{Exp: 3}} {
		b, err := EnclosingBall(n, pts, rng, nil)
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		for _, p := range pts {
			if !b.Contains(n, p) {
				t.Errorf("%s: ball misses %v", n.Name(), p)
			}
		}
	}
	// 3-D under L1 goes through the projection path.
	pts3 := []vec.V{vec.Of(0, 0, 0), vec.Of(1, 2, 3)}
	b, err := EnclosingBall(norm.L1{}, pts3, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Contains(norm.L1{}, pts3[1]) {
		t.Error("3-D L1 ball misses point")
	}
	if _, err := EnclosingBall(norm.L2{}, nil, rng, nil); err != ErrNoPoints {
		t.Fatalf("empty err = %v", err)
	}
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, ok := solveLinear(a, b)
	if !ok {
		t.Fatal("solver reported singular")
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
	sing := [][]float64{{1, 2}, {2, 4}}
	if _, ok := solveLinear(sing, []float64{1, 2}); ok {
		t.Fatal("singular system not detected")
	}
}

// Property (quick): for random small 2-D sets, MinBall2's radius equals the
// brute-force optimum over all 1-, 2-, and 3-point support candidates.
func TestMinBall2MatchesBruteForce(t *testing.T) {
	l2 := norm.L2{}
	coverRadius := func(c vec.V, pts []vec.V) float64 {
		var r float64
		for _, p := range pts {
			if d := l2.Dist(c, p); d > r {
				r = d
			}
		}
		return r
	}
	f := func(raw [5][2]float64) bool {
		pts := make([]vec.V, 0, 5)
		for _, xy := range raw {
			x := math.Mod(xy[0], 100)
			y := math.Mod(xy[1], 100)
			if math.IsNaN(x) || math.IsNaN(y) {
				x, y = 0, 0
			}
			pts = append(pts, vec.Of(x, y))
		}
		b, err := MinBall2(pts, xrand.New(1), nil)
		if err != nil {
			return false
		}
		// Brute force: balls from all pairs and triples.
		best := math.Inf(1)
		for i := range pts {
			for j := i; j < len(pts); j++ {
				c := pts[i].Mid(pts[j])
				if r := coverRadius(c, pts); r < best {
					best = r
				}
				for k := j + 1; k < len(pts); k++ {
					cb := circumball([]vec.V{pts[i], pts[j], pts[k]})
					if cb.Radius < 0 {
						continue
					}
					if r := coverRadius(cb.Center, pts); r < best {
						best = r
					}
				}
			}
		}
		return b.Radius <= best*(1+1e-7)+1e-9 && b.Radius >= best*(1-1e-7)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
