// Package pointset models the weighted user populations the paper's
// algorithms run over: n points in an m-dimensional interest space, each
// with a maximum reward w_i (paper §III.A). It also provides the synthetic
// workload generators used by the evaluation (§VI.A): uniform placement in a
// 4×4 2-D box or 4×4×4 3-D box, with unit weights or random integer weights
// in [1, 5].
package pointset

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// Set is an immutable collection of weighted points: nothing changes a Set
// after construction, so solvers, evaluators and indexes may share one
// across goroutines. A population that changes is rebuilt as a new Set.
//
// A Set holds its coordinates once, in one contiguous row-major array
// (point i occupies coords[i*dim : (i+1)*dim]), and nothing per point
// besides: Point(i) slices its row on demand. The flat layout is what the
// batched distance kernels in internal/norm scan: one candidate center
// against n points touches n·dim adjacent float64s instead of n scattered
// slices.
type Set struct {
	weights []float64
	coords  []float64 // row-major coordinates
	dim     int
}

// New builds a Set from parallel slices of points and weights. It returns an
// error when the slices disagree in length, the set is empty, dimensions are
// inconsistent, any weight is negative or non-finite, or the weights' sum is
// not finite.
func New(pts []vec.V, weights []float64) (*Set, error) {
	if len(pts) == 0 {
		return nil, errors.New("pointset: empty set")
	}
	if len(pts) != len(weights) {
		return nil, fmt.Errorf("pointset: %d points but %d weights", len(pts), len(weights))
	}
	dim := pts[0].Dim()
	for i, p := range pts {
		if p.Dim() != dim {
			return nil, fmt.Errorf("pointset: point %d has dim %d, want %d", i, p.Dim(), dim)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("pointset: point %d has non-finite coordinates", i)
		}
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("pointset: weight %d = %v is invalid", i, w)
		}
	}
	if t := total(weights); math.IsInf(t, 0) {
		return nil, fmt.Errorf("pointset: weights sum to %v, want a finite total", t)
	}
	flat := make([]float64, 0, len(pts)*dim)
	for _, p := range pts {
		flat = append(flat, p...)
	}
	return build(flat, dim, append([]float64(nil), weights...)), nil
}

// build is the one constructor every Set goes through. It returns a Set
// that owns flat (len(weights) points, row-major) and weights.
func build(flat []float64, dim int, weights []float64) *Set {
	return &Set{weights: weights, coords: flat, dim: dim}
}

// UnitWeights builds a Set where every point has weight 1 (the paper's
// "same weight" scheme).
func UnitWeights(pts []vec.V) (*Set, error) {
	ws := make([]float64, len(pts))
	for i := range ws {
		ws[i] = 1
	}
	return New(pts, ws)
}

// Len reports the number of points n.
func (s *Set) Len() int { return len(s.weights) }

// Dim reports the dimensionality m.
func (s *Set) Dim() int { return s.dim }

// Point returns the i-th point, a view of row i of Coords() capped at Dim(),
// so an append to it cannot reach its neighbour. The returned slice must
// not be modified.
func (s *Set) Point(i int) vec.V { return s.coords[i*s.dim : (i+1)*s.dim : (i+1)*s.dim] }

// Weight returns w_i.
func (s *Set) Weight(i int) float64 { return s.weights[i] }

// Points returns a fresh slice of the row views Point(i). It allocates
// O(n) on every call, so it is for cold callers such as the exhaustive
// baseline and the optimizers; hot paths read Coords or Point.
func (s *Set) Points() []vec.V {
	pts := make([]vec.V, s.Len())
	for i := range pts {
		pts[i] = s.Point(i)
	}
	return pts
}

// Weights returns the backing weight slice. It must be treated as read-only.
func (s *Set) Weights() []float64 { return s.weights }

// Coords returns the points as one contiguous row-major array: point i is
// Coords()[i*Dim() : (i+1)*Dim()], the row Point(i) views. It must be
// treated as read-only. Batched distance kernels consume this layout.
func (s *Set) Coords() []float64 { return s.coords }

// TotalWeight returns Σ w_i, the upper bound on any reward (f_opt ≤ Σ w_i).
// It is finite: New and the JSON codec reject weights whose sum is not.
func (s *Set) TotalWeight() float64 { return total(s.weights) }

// total adds ws in index order.
func total(ws []float64) float64 {
	var t float64
	for _, w := range ws {
		t += w
	}
	return t
}

// Bounds returns the component-wise bounding box of the points.
func (s *Set) Bounds() (lo, hi vec.V) {
	lo, hi, _ = vec.FlatBounds(s.coords, s.dim) // cannot fail: Set is non-empty, consistent
	return lo, hi
}

// Subset returns a new Set restricted to the given indices.
func (s *Set) Subset(idx []int) (*Set, error) {
	if len(idx) == 0 {
		return nil, errors.New("pointset: empty subset")
	}
	flat := make([]float64, 0, len(idx)*s.dim)
	ws := make([]float64, len(idx))
	for j, i := range idx {
		if i < 0 || i >= s.Len() {
			return nil, fmt.Errorf("pointset: index %d out of range [0,%d)", i, s.Len())
		}
		flat = append(flat, s.coords[i*s.dim:(i+1)*s.dim]...)
		ws[j] = s.weights[i]
	}
	return build(flat, s.dim, ws), nil
}

// WithWeights returns a copy of s carrying the given weights instead.
func (s *Set) WithWeights(weights []float64) (*Set, error) {
	return New(s.Points(), weights)
}

// Box describes an axis-aligned region [Lo_d, Hi_d] per dimension.
type Box struct {
	Lo, Hi vec.V
}

// PaperBox2D is the 4×4 2-D region used throughout the paper's simulations.
func PaperBox2D() Box { return Box{Lo: vec.Of(0, 0), Hi: vec.Of(4, 4)} }

// PaperBox3D is the 4×4×4 3-D region used by the paper's Figs. 8–9.
func PaperBox3D() Box { return Box{Lo: vec.Of(0, 0, 0), Hi: vec.Of(4, 4, 4)} }

// Dim reports the box's dimensionality.
func (b Box) Dim() int { return b.Lo.Dim() }

// Valid reports whether Lo/Hi agree in dimension and Lo ≤ Hi component-wise.
func (b Box) Valid() bool {
	if b.Lo.Dim() != b.Hi.Dim() || b.Lo.Dim() == 0 {
		return false
	}
	for i := range b.Lo {
		if b.Lo[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Sample draws one uniform point inside the box.
func (b Box) Sample(rng *xrand.Rand) vec.V {
	p := vec.New(b.Dim())
	for i := range p {
		p[i] = rng.Uniform(b.Lo[i], b.Hi[i])
	}
	return p
}

// Contains reports whether p lies inside the (closed) box.
func (b Box) Contains(p vec.V) bool {
	if p.Dim() != b.Dim() {
		return false
	}
	for i := range p {
		if p[i] < b.Lo[i] || p[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// WeightScheme selects how maximum rewards are assigned, mirroring the two
// schemes in the paper's §VI.A.
type WeightScheme int

const (
	// UnitWeight gives every node w_i = 1 ("same weight").
	UnitWeight WeightScheme = iota
	// RandomIntWeight gives each node an independent uniform integer
	// weight in [1, 5] ("different weight").
	RandomIntWeight
)

// String implements fmt.Stringer.
func (w WeightScheme) String() string {
	switch w {
	case UnitWeight:
		return "same-weight"
	case RandomIntWeight:
		return "random-weight"
	default:
		return fmt.Sprintf("WeightScheme(%d)", int(w))
	}
}

// GenUniform places n points uniformly in the box with weights from the
// scheme — exactly the paper's simulation setup.
func GenUniform(n int, box Box, scheme WeightScheme, rng *xrand.Rand) (*Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pointset: n = %d must be positive", n)
	}
	if !box.Valid() {
		return nil, fmt.Errorf("pointset: invalid box %v..%v", box.Lo, box.Hi)
	}
	pts := make([]vec.V, n)
	ws := make([]float64, n)
	for i := 0; i < n; i++ {
		pts[i] = box.Sample(rng)
		switch scheme {
		case UnitWeight:
			ws[i] = 1
		case RandomIntWeight:
			ws[i] = float64(rng.IntRange(1, 5))
		default:
			return nil, fmt.Errorf("pointset: unknown weight scheme %v", scheme)
		}
	}
	return New(pts, ws)
}

// GenClustered places n points in c Gaussian clusters whose centers are
// uniform in the box; cluster membership is uniform and points are clipped
// to the box. This models communities of users with similar interests — a
// workload beyond the paper's uniform traces, used by the broadcast examples.
func GenClustered(n, c int, sigma float64, box Box, scheme WeightScheme, rng *xrand.Rand) (*Set, error) {
	if n <= 0 || c <= 0 {
		return nil, fmt.Errorf("pointset: n=%d, c=%d must be positive", n, c)
	}
	if sigma < 0 || !box.Valid() {
		return nil, fmt.Errorf("pointset: invalid sigma=%v or box", sigma)
	}
	centers := make([]vec.V, c)
	for i := range centers {
		centers[i] = box.Sample(rng)
	}
	pts := make([]vec.V, n)
	ws := make([]float64, n)
	for i := 0; i < n; i++ {
		ctr := centers[rng.Intn(c)]
		p := vec.New(box.Dim())
		for d := range p {
			x := ctr[d] + sigma*rng.NormFloat64()
			p[d] = math.Min(math.Max(x, box.Lo[d]), box.Hi[d])
		}
		pts[i] = p
		switch scheme {
		case UnitWeight:
			ws[i] = 1
		case RandomIntWeight:
			ws[i] = float64(rng.IntRange(1, 5))
		default:
			return nil, fmt.Errorf("pointset: unknown weight scheme %v", scheme)
		}
	}
	return New(pts, ws)
}

// GridPoints returns the vertices of a uniform lattice with `per` points per
// dimension spanning the box (per ≥ 2 includes both faces; per == 1 yields
// the box center per dimension). These enrich the exhaustive baseline's
// candidate set. A box with finite faces gets finite points, even where its
// width or its faces' sum overflows float64.
func GridPoints(box Box, per int) ([]vec.V, error) {
	if per <= 0 {
		return nil, fmt.Errorf("pointset: grid resolution %d must be positive", per)
	}
	if !box.Valid() {
		return nil, errors.New("pointset: invalid box")
	}
	dim := box.Dim()
	total := 1
	for i := 0; i < dim; i++ {
		total *= per
	}
	out := make([]vec.V, 0, total)
	idx := make([]int, dim)
	for {
		p := vec.New(dim)
		for d := 0; d < dim; d++ {
			lo, hi := box.Lo[d], box.Hi[d]
			t := 0.5
			if per == 1 {
				p[d] = (lo + hi) / 2
			} else {
				t = float64(idx[d]) / float64(per-1)
				p[d] = lo + (hi-lo)*float64(idx[d])/float64(per-1)
			}
			if !(math.Abs(p[d]) <= math.MaxFloat64) {
				// The box is wider than float64, or its faces sum past it:
				// a convex combination of the faces, kept inside them,
				// stays finite.
				p[d] = math.Min(math.Max(lo*(1-t)+hi*t, lo), hi)
			}
		}
		out = append(out, p)
		// Odometer increment.
		d := 0
		for ; d < dim; d++ {
			idx[d]++
			if idx[d] < per {
				break
			}
			idx[d] = 0
		}
		if d == dim {
			return out, nil
		}
	}
}
