package geom_test

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// The smallest enclosing Euclidean ball of an obtuse triangle is the
// diameter of its longest side, not the circumcircle.
func ExampleMinBall2() {
	pts := []vec.V{vec.Of(0, 0), vec.Of(10, 0), vec.Of(5, 1)}
	b, _ := geom.MinBall2(pts, xrand.New(1), nil)
	fmt.Printf("center %v radius %.1f\n", b.Center, b.Radius)
	// Output:
	// center (5.000, 0.000) radius 5.0
}

// Under the 1-norm in 2-D the minimal covering "disk" is a diamond; a 45°
// rotation reduces it to a bounding-box computation.
func ExampleMinBallL1in2D() {
	pts := []vec.V{vec.Of(0, 0), vec.Of(2, 2)}
	b, _ := geom.MinBallL1in2D(pts)
	fmt.Printf("center %v radius %.1f\n", b.Center, b.Radius)
	// Output:
	// center (1.000, 1.000) radius 2.0
}

// The Chebyshev ball (∞-norm) is the midpoint of the bounding box — the
// paper's per-dimension (min+max)/2 projection rule.
func ExampleChebyshevBall() {
	pts := []vec.V{vec.Of(0, 0), vec.Of(4, 2)}
	b, _ := geom.ChebyshevBall(pts)
	fmt.Printf("center %v radius %.1f\n", b.Center, b.Radius)
	// Output:
	// center (2.000, 1.000) radius 2.0
}
