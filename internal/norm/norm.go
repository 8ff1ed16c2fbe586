// Package norm implements the p-norm family used by the paper to measure
// interest distance between broadcast contents and user interests
// (paper §III.B). The 1-norm (Manhattan) and 2-norm (Euclidean) are the
// paper's focus; the ∞-norm and arbitrary p ≥ 1 are supported as the paper's
// "general p-norm" extension.
package norm

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Norm measures lengths and distances in interest space. Implementations
// must satisfy the norm axioms: non-negativity, definiteness, absolute
// homogeneity, and the triangle inequality. Dist(a, b) and Dist(b, a) must
// have the same bits or both be NaN: reward.Instance.RoundGains computes
// each pair's distance once and uses it from both ends.
type Norm interface {
	// Len returns ‖v‖.
	Len(v vec.V) float64
	// Dist returns ‖a − b‖ without allocating an intermediate vector.
	Dist(a, b vec.V) float64
	// Within finds, in one call, the rows of a flat coordinate array that
	// lie strictly within r of c. coords is row-major with the given
	// dimension (point i occupies coords[i*dim:(i+1)*dim], as
	// pointset.Set.Coords lays it out). It appends to pos and dist, in
	// ascending position order, exactly the rows x with Dist(c, x) < r,
	// and returns both. With idx nil the rows are all rows of coords and a
	// row's position is its row number; otherwise row j is
	// coords[idx[j]*dim:(idx[j]+1)*dim] and its position is j. dist[k] is
	// Dist(c, row) for the row at pos[k], bit for bit. It panics when dim
	// is not positive, c's dimension disagrees with dim, coords is not a
	// whole number of rows, pos and dist differ in length, or there are
	// more rows than MaxInt32.
	Within(c vec.V, coords []float64, dim int, idx []int32, r float64, pos []int32, dist []float64) ([]int32, []float64)
	// P reports the norm's exponent; math.Inf(1) for the ∞-norm.
	P() float64
	// Name is a short human-readable identifier such as "1-norm".
	Name() string
}

// L1 is the Manhattan (taxicab) norm: Σ|x_i|.
type L1 struct{}

// Len implements Norm.
func (L1) Len(v vec.V) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Dist implements Norm.
func (L1) Dist(a, b vec.V) float64 {
	mustMatch(a, b)
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// P implements Norm.
func (L1) P() float64 { return 1 }

// Name implements Norm.
func (L1) Name() string { return "1-norm" }

// L2 is the Euclidean norm: sqrt(Σ x_i²), the paper's physical-distance model.
type L2 struct{}

// Len implements Norm.
func (L2) Len(v vec.V) float64 { return v.Norm2() }

// Dist implements Norm.
func (L2) Dist(a, b vec.V) float64 { return a.Dist2(b) }

// P implements Norm.
func (L2) P() float64 { return 2 }

// Name implements Norm.
func (L2) Name() string { return "2-norm" }

// LInf is the Chebyshev norm: max|x_i|.
type LInf struct{}

// Len implements Norm.
func (LInf) Len(v vec.V) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Dist implements Norm.
func (LInf) Dist(a, b vec.V) float64 {
	mustMatch(a, b)
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// P implements Norm.
func (LInf) P() float64 { return math.Inf(1) }

// Name implements Norm.
func (LInf) Name() string { return "inf-norm" }

// LP is the general p-norm (Σ|x_i|^p)^(1/p) for finite p ≥ 1.
type LP struct {
	Exp float64
}

// NewLP returns the p-norm for the given exponent. It returns an error when
// p < 1 (not a norm: the triangle inequality fails) or p is not finite.
func NewLP(p float64) (LP, error) {
	if math.IsNaN(p) || math.IsInf(p, 0) || p < 1 {
		return LP{}, fmt.Errorf("norm: invalid exponent p=%v (need finite p >= 1)", p)
	}
	return LP{Exp: p}, nil
}

// Len implements Norm.
func (n LP) Len(v vec.V) float64 {
	var s float64
	for _, x := range v {
		s += math.Pow(math.Abs(x), n.Exp)
	}
	return math.Pow(s, 1/n.Exp)
}

// Dist implements Norm.
func (n LP) Dist(a, b vec.V) float64 {
	mustMatch(a, b)
	var s float64
	for i := range a {
		s += math.Pow(math.Abs(a[i]-b[i]), n.Exp)
	}
	return math.Pow(s, 1/n.Exp)
}

// P implements Norm.
func (n LP) P() float64 { return n.Exp }

// Name implements Norm.
func (n LP) Name() string { return fmt.Sprintf("%g-norm", n.Exp) }

// ByName resolves "1-norm", "2-norm", "inf-norm", "l1", "l2", "linf" (case
// as written) to a Norm. It is used by the CLI flag parsers.
func ByName(name string) (Norm, error) {
	switch name {
	case "1-norm", "l1", "L1", "1":
		return L1{}, nil
	case "2-norm", "l2", "L2", "2":
		return L2{}, nil
	case "inf-norm", "linf", "Linf", "inf":
		return LInf{}, nil
	default:
		return nil, fmt.Errorf("norm: unknown norm %q", name)
	}
}

func mustMatch(a, b vec.V) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("norm: dimension mismatch %d vs %d", len(a), len(b)))
	}
}
