// Package geom provides the enclosing-ball machinery behind the paper's
// complex local greedy algorithm (Algorithm 4): exact Euclidean smallest
// enclosing balls (Welzl 1991, expected linear time, any dimension), the
// Chebyshev / bounding-box center used by the paper's 1-norm projection rule,
// an exact 2-D 1-norm enclosing ball via 45° rotation, and a Badoiu–Clarkson
// core-set approximation for very high dimensions.
package geom

import (
	"errors"
	"math"

	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// Ball is a center and radius under some norm (the norm is contextual: the
// function that produced the ball documents it).
type Ball struct {
	Center vec.V
	Radius float64
}

// Contains reports whether p lies in the ball under norm n, with a small
// relative tolerance to absorb floating-point error.
func (b Ball) Contains(n norm.Norm, p vec.V) bool {
	return n.Dist(b.Center, p) <= b.Radius*(1+1e-9)+1e-12
}

// ErrNoPoints is returned when an enclosing ball of zero points is requested.
var ErrNoPoints = errors.New("geom: enclosing ball of empty point set")

// MinBall2 returns the exact smallest enclosing Euclidean ball of the given
// points in any dimension, using Welzl's randomized algorithm. The rng is
// used only for the initial shuffle; passing the same generator state yields
// the same (unique) ball. A live collector c (nil is fine) records the call
// (obs.CtrSEBCalls), the input size (obs.ObsSEBPoints), the maximum Welzl
// recursion depth reached (obs.ObsSEBDepth), and one obs.EvSEB event.
func MinBall2(points []vec.V, rng *xrand.Rand, c obs.Collector) (Ball, error) {
	if len(points) == 0 {
		return Ball{}, ErrNoPoints
	}
	dim := points[0].Dim()
	for _, p := range points[1:] {
		if p.Dim() != dim {
			return Ball{}, vec.ErrDimMismatch
		}
	}
	// Shuffled copy: Welzl's expected-linear bound needs random order.
	pts := make([]vec.V, len(points))
	copy(pts, points)
	if rng == nil {
		rng = xrand.New(0x5eb)
	}
	for i := len(pts) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		pts[i], pts[j] = pts[j], pts[i]
	}
	w := welzl{dim: dim}
	b := w.run(pts, nil)
	if obs.Active(c) {
		c.Count(obs.CtrSEBCalls, 1)
		c.Observe(obs.ObsSEBPoints, float64(len(points)))
		c.Observe(obs.ObsSEBDepth, float64(w.maxDepth))
		c.Emit(obs.Event{Type: obs.EvSEB, Fields: map[string]float64{
			"points": float64(len(points)),
			"depth":  float64(w.maxDepth),
			"radius": b.Radius,
		}})
	}
	return b, nil
}

type welzl struct {
	dim      int
	depth    int
	maxDepth int
}

// run computes the minimal ball of pts with the points in boundary forced
// onto the sphere. boundary never exceeds dim+1 points.
func (w *welzl) run(pts []vec.V, boundary []vec.V) Ball {
	w.depth++
	if w.depth > w.maxDepth {
		w.maxDepth = w.depth
	}
	defer func() { w.depth-- }()
	if len(pts) == 0 || len(boundary) == w.dim+1 {
		return circumball(boundary)
	}
	p := pts[len(pts)-1]
	b := w.run(pts[:len(pts)-1], boundary)
	if b.Radius >= 0 && (norm.L2{}).Dist(b.Center, p) <= b.Radius*(1+1e-10)+1e-12 {
		return b
	}
	return w.run(pts[:len(pts)-1], append(boundary, p))
}

// circumball returns the smallest ball with all of boundary on its sphere:
// the circumcenter within the affine hull of the boundary points. An empty
// boundary yields an invalid ball with Radius −1 that contains nothing.
func circumball(boundary []vec.V) Ball {
	switch len(boundary) {
	case 0:
		return Ball{Radius: -1}
	case 1:
		return Ball{Center: boundary[0].Clone(), Radius: 0}
	case 2:
		c := boundary[0].Mid(boundary[1])
		return Ball{Center: c, Radius: c.Dist2(boundary[0])}
	}
	// Solve 2·Q·λ = b over the affine hull of boundary[0]: with
	// q_i = boundary[i] − boundary[0], Q[i][j] = q_i·q_j and b[i] = |q_i|².
	// The center is boundary[0] + Σ λ_i q_i.
	k := len(boundary) - 1
	qs := make([]vec.V, k)
	for i := 0; i < k; i++ {
		qs[i] = boundary[i+1].Sub(boundary[0])
	}
	a := make([][]float64, k)
	rhs := make([]float64, k)
	for i := 0; i < k; i++ {
		a[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			a[i][j] = 2 * qs[i].Dot(qs[j])
		}
		rhs[i] = qs[i].Dot(qs[i])
	}
	lambda, ok := solveLinear(a, rhs)
	if !ok {
		// Degenerate (affinely dependent) boundary: drop the last point;
		// the remaining support already determines the ball.
		return circumball(boundary[:len(boundary)-1])
	}
	c := boundary[0].Clone()
	for i := 0; i < k; i++ {
		c.AddInPlace(qs[i].Scale(lambda[i]))
	}
	return Ball{Center: c, Radius: c.Dist2(boundary[0])}
}

// solveLinear solves a·x = b by Gaussian elimination with partial pivoting.
// It reports ok=false when the system is (numerically) singular. a and b are
// clobbered.
func solveLinear(a [][]float64, b []float64) ([]float64, bool) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}

// ChebyshevBall returns the smallest enclosing ball under the ∞-norm: the
// midpoint of the bounding box, with radius half the largest side. This is
// also the paper's per-dimension projection rule for 1-norm re-centering
// ("the center position along this dimension is (min+max)/2", §V.B).
func ChebyshevBall(points []vec.V) (Ball, error) {
	lo, hi, err := vec.Bounds(points)
	if err != nil {
		if len(points) == 0 {
			return Ball{}, ErrNoPoints
		}
		return Ball{}, err
	}
	c := lo.Mid(hi)
	var r float64
	for i := range lo {
		if half := (hi[i] - lo[i]) / 2; half > r {
			r = half
		}
	}
	return Ball{Center: c, Radius: r}, nil
}

// ProjectionBall applies the paper's projection rule (Chebyshev center) and
// reports the radius measured under the supplied norm, so that the result is
// a valid enclosing ball under that norm even though the center is only
// optimal for the ∞-norm.
func ProjectionBall(n norm.Norm, points []vec.V) (Ball, error) {
	b, err := ChebyshevBall(points)
	if err != nil {
		return Ball{}, err
	}
	var r float64
	for _, p := range points {
		if d := n.Dist(b.Center, p); d > r {
			r = d
		}
	}
	b.Radius = r
	return b, nil
}

// MinBallL1in2D returns the exact smallest enclosing ball under the 1-norm
// in two dimensions. The L1 unit ball is a diamond; rotating coordinates by
// 45° ((x,y) → (x+y, y−x)) turns L1 distance into L∞ distance, where the
// bounding-box midpoint is exact, and the result is rotated back.
func MinBallL1in2D(points []vec.V) (Ball, error) {
	if len(points) == 0 {
		return Ball{}, ErrNoPoints
	}
	rot := make([]vec.V, len(points))
	for i, p := range points {
		if p.Dim() != 2 {
			return Ball{}, vec.ErrDimMismatch
		}
		rot[i] = vec.Of(p[0]+p[1], p[1]-p[0])
	}
	cb, err := ChebyshevBall(rot)
	if err != nil {
		return Ball{}, err
	}
	u, w := cb.Center[0], cb.Center[1]
	center := vec.Of((u-w)/2, (u+w)/2)
	var r float64
	l1 := norm.L1{}
	for _, p := range points {
		if d := l1.Dist(center, p); d > r {
			r = d
		}
	}
	return Ball{Center: center, Radius: r}, nil
}

// ApproxMinBall2 returns a (1+ε)-approximate Euclidean enclosing ball using
// the Badoiu–Clarkson core-set iteration with ⌈1/ε²⌉ rounds. It is useful
// when the dimension is large enough that exact Welzl support solving becomes
// the bottleneck. A live collector col (nil is fine) records the call
// (obs.CtrSEBCalls) and the number of core-set iterations performed
// (obs.ObsCoresetIters).
func ApproxMinBall2(points []vec.V, eps float64, col obs.Collector) (Ball, error) {
	if len(points) == 0 {
		return Ball{}, ErrNoPoints
	}
	if eps <= 0 {
		eps = 0.01
	}
	c := points[0].Clone()
	iters := int(math.Ceil(1/(eps*eps))) + 1
	for i := 1; i <= iters; i++ {
		// Walk toward the farthest point by 1/(i+1).
		far, fd := 0, -1.0
		for j, p := range points {
			if d := c.Dist2(p); d > fd {
				far, fd = j, d
			}
		}
		step := 1 / float64(i+1)
		for d := range c {
			c[d] += step * (points[far][d] - c[d])
		}
	}
	var r float64
	for _, p := range points {
		if d := c.Dist2(p); d > r {
			r = d
		}
	}
	if obs.Active(col) {
		col.Count(obs.CtrSEBCalls, 1)
		col.Observe(obs.ObsCoresetIters, float64(iters))
	}
	return Ball{Center: c, Radius: r}, nil
}

// EnclosingBall dispatches to the best available enclosing-ball construction
// for the norm: exact Welzl for the 2-norm, exact rotation for the 1-norm in
// 2-D, the exact bounding box for the ∞-norm, and the paper's projection
// heuristic otherwise (valid but possibly non-minimal). With a live
// collector c (nil is fine) the Welzl path records its recursion depth via
// MinBall2; the closed-form constructions record the call and input size
// (depth is meaningless for them and omitted).
func EnclosingBall(n norm.Norm, points []vec.V, rng *xrand.Rand, c obs.Collector) (Ball, error) {
	if len(points) == 0 {
		return Ball{}, ErrNoPoints
	}
	count := func(b Ball, err error) (Ball, error) {
		if err == nil && obs.Active(c) {
			c.Count(obs.CtrSEBCalls, 1)
			c.Observe(obs.ObsSEBPoints, float64(len(points)))
			c.Emit(obs.Event{Type: obs.EvSEB, Fields: map[string]float64{
				"points": float64(len(points)),
				"radius": b.Radius,
			}})
		}
		return b, err
	}
	switch nn := n.(type) {
	case norm.L2:
		return MinBall2(points, rng, c)
	case norm.L1:
		if points[0].Dim() == 2 {
			return count(MinBallL1in2D(points))
		}
		return count(ProjectionBall(nn, points))
	case norm.LInf:
		return count(ChebyshevBall(points))
	default:
		return count(ProjectionBall(n, points))
	}
}
