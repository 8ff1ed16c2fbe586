// Package vec provides small dense vectors in R^m used throughout the
// content-distribution library: user interests, broadcast contents, and
// geometric centers are all vec.V values.
//
// Vectors are plain []float64 slices with value semantics supplied by
// explicit Clone calls; the arithmetic helpers never mutate their operands
// unless the name says so (AddInPlace, ScaleInPlace).
package vec

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// V is a point or direction in m-dimensional interest space.
type V []float64

// ErrDimMismatch is returned by checked operations whose operands have
// different dimensionality.
var ErrDimMismatch = errors.New("vec: dimension mismatch")

// New returns a zero vector of dimension m. It panics if m < 0.
func New(m int) V {
	if m < 0 {
		panic(fmt.Sprintf("vec: negative dimension %d", m))
	}
	return make(V, m)
}

// Of builds a vector from its components. The arguments are copied, so the
// caller may reuse the backing array.
func Of(xs ...float64) V {
	v := make(V, len(xs))
	copy(v, xs)
	return v
}

// Dim reports the dimensionality of v.
func (v V) Dim() int { return len(v) }

// Clone returns an independent copy of v.
func (v V) Clone() V {
	w := make(V, len(v))
	copy(w, v)
	return w
}

// Equal reports whether v and w have identical dimension and components.
func (v V) Equal(w V) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether v and w agree component-wise within tol.
func (v V) ApproxEqual(w V, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// Add returns v + w. It panics on dimension mismatch.
func (v V) Add(w V) V {
	mustMatch(v, w)
	out := make(V, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v − w. It panics on dimension mismatch.
func (v V) Sub(w V) V {
	mustMatch(v, w)
	out := make(V, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns s·v.
func (v V) Scale(s float64) V {
	out := make(V, len(v))
	for i := range v {
		out[i] = s * v[i]
	}
	return out
}

// AddInPlace sets v = v + w and returns v. It panics on dimension mismatch.
func (v V) AddInPlace(w V) V {
	mustMatch(v, w)
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// ScaleInPlace sets v = s·v and returns v.
func (v V) ScaleInPlace(s float64) V {
	for i := range v {
		v[i] *= s
	}
	return v
}

// Dot returns the inner product ⟨v, w⟩. It panics on dimension mismatch.
func (v V) Dot(w V) float64 {
	mustMatch(v, w)
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean length of v.
func (v V) Norm2() float64 {
	// Hypot-style scaling guards against overflow for extreme components.
	var maxAbs float64
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		r := x / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// Dist2 returns the Euclidean distance between v and w.
func (v V) Dist2(w V) float64 {
	mustMatch(v, w)
	var maxAbs float64
	for i := range v {
		if a := math.Abs(v[i] - w[i]); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var s float64
	for i := range v {
		r := (v[i] - w[i]) / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// Lerp returns (1−t)·v + t·w, the point a fraction t of the way from v to w.
func (v V) Lerp(w V, t float64) V {
	mustMatch(v, w)
	out := make(V, len(v))
	for i := range v {
		out[i] = v[i] + t*(w[i]-v[i])
	}
	return out
}

// Mid returns the midpoint of v and w.
func (v V) Mid(w V) V { return v.Lerp(w, 0.5) }

// IsFinite reports whether every component is finite (no NaN or ±Inf).
func (v V) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// String renders v as "(x1, x2, …)" with three decimals, the format used by
// the example programs and ASCII reports.
func (v V) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.3f", x)
	}
	b.WriteByte(')')
	return b.String()
}

// Centroid returns the arithmetic mean of the given vectors. It returns an
// error if the slice is empty or the dimensions disagree.
func Centroid(vs []V) (V, error) {
	if len(vs) == 0 {
		return nil, errors.New("vec: centroid of empty set")
	}
	m := len(vs[0])
	c := New(m)
	for _, v := range vs {
		if len(v) != m {
			return nil, ErrDimMismatch
		}
		c.AddInPlace(v)
	}
	return c.ScaleInPlace(1 / float64(len(vs))), nil
}

// Bounds returns component-wise minima and maxima over the given vectors.
// It returns an error if the slice is empty or the dimensions disagree.
func Bounds(vs []V) (lo, hi V, err error) {
	if len(vs) == 0 {
		return nil, nil, errors.New("vec: bounds of empty set")
	}
	lo, hi = vs[0].Clone(), vs[0].Clone()
	for _, v := range vs[1:] {
		if len(v) != len(lo) {
			return nil, nil, ErrDimMismatch
		}
		widen(lo, hi, v)
	}
	return lo, hi, nil
}

// FlatBounds is Bounds over the dim-wide rows of flat, the row-major layout
// of pointset.Set.Coords. No rows, or a length dim does not divide, is an
// error.
func FlatBounds(flat []float64, dim int) (lo, hi V, err error) {
	if dim < 1 || len(flat) == 0 || len(flat)%dim != 0 {
		return nil, nil, fmt.Errorf("vec: %d values hold no rows of dimension %d", len(flat), dim)
	}
	lo, hi = Of(flat[:dim]...), Of(flat[:dim]...)
	for i := dim; i < len(flat); i += dim {
		widen(lo, hi, flat[i:i+dim])
	}
	return lo, hi, nil
}

// widen grows the box [lo, hi] to hold v.
func widen(lo, hi, v V) {
	for i, x := range v {
		if x < lo[i] {
			lo[i] = x
		}
		if x > hi[i] {
			hi[i] = x
		}
	}
}

func mustMatch(v, w V) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(v), len(w)))
	}
}
