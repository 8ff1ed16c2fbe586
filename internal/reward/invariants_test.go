package reward

import (
	"math"
	"testing"

	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// randomSetup builds a random instance plus a random center set.
func randomSetup(t *testing.T, rng *xrand.Rand, nm norm.Norm) (*Instance, []vec.V) {
	t.Helper()
	n := rng.IntRange(1, 20)
	dim := rng.IntRange(1, 4)
	pts := make([]vec.V, n)
	ws := make([]float64, n)
	for i := range pts {
		p := vec.New(dim)
		for d := range p {
			p[d] = rng.Uniform(0, 4)
		}
		pts[i] = p
		ws[i] = float64(rng.IntRange(1, 5))
	}
	in := mustInstance(t, pts, ws, nm, rng.Uniform(0.5, 2.5))
	k := rng.IntRange(1, 5)
	centers := make([]vec.V, k)
	for j := range centers {
		c := vec.New(dim)
		for d := range c {
			c[d] = rng.Uniform(0, 4)
		}
		centers[j] = c
	}
	return in, centers
}

// f(C) is invariant under permutation of the centers (the cap is a min over
// a sum — order free).
func TestObjectivePermutationInvariant(t *testing.T) {
	rng := xrand.New(83)
	for trial := 0; trial < 100; trial++ {
		in, centers := randomSetup(t, rng, norm.L2{})
		base := in.Objective(centers)
		perm := rng.Perm(len(centers))
		shuffled := make([]vec.V, len(centers))
		for i, p := range perm {
			shuffled[i] = centers[p]
		}
		if got := in.Objective(shuffled); math.Abs(got-base) > 1e-9*(1+base) {
			t.Fatalf("trial %d: permutation changed objective %v -> %v", trial, base, got)
		}
	}
}

// Translating every point and every center by the same vector leaves all
// rewards unchanged (distances are translation invariant).
func TestObjectiveTranslationInvariant(t *testing.T) {
	rng := xrand.New(89)
	for trial := 0; trial < 100; trial++ {
		nm := []norm.Norm{norm.L1{}, norm.L2{}, norm.LInf{}}[trial%3]
		in, centers := randomSetup(t, rng, nm)
		base := in.Objective(centers)
		shift := vec.New(in.Set.Dim())
		for d := range shift {
			shift[d] = rng.Uniform(-10, 10)
		}
		pts := make([]vec.V, in.N())
		for i := 0; i < in.N(); i++ {
			pts[i] = in.Set.Point(i).Add(shift)
		}
		set, err := pointset.New(pts, in.Set.Weights())
		if err != nil {
			t.Fatal(err)
		}
		in2, err := NewInstance(set, nm, in.Radius)
		if err != nil {
			t.Fatal(err)
		}
		moved := make([]vec.V, len(centers))
		for j := range centers {
			moved[j] = centers[j].Add(shift)
		}
		if got := in2.Objective(moved); math.Abs(got-base) > 1e-9*(1+base) {
			t.Fatalf("trial %d (%s): translation changed objective %v -> %v", trial, nm.Name(), base, got)
		}
	}
}

// Scaling the geometry and the radius together leaves coverage fractions —
// and therefore all rewards — unchanged (d/r is scale free).
func TestObjectiveScaleInvariant(t *testing.T) {
	rng := xrand.New(97)
	for trial := 0; trial < 100; trial++ {
		in, centers := randomSetup(t, rng, norm.L2{})
		base := in.Objective(centers)
		s := rng.Uniform(0.1, 10)
		pts := make([]vec.V, in.N())
		for i := 0; i < in.N(); i++ {
			pts[i] = in.Set.Point(i).Scale(s)
		}
		set, err := pointset.New(pts, in.Set.Weights())
		if err != nil {
			t.Fatal(err)
		}
		in2, err := NewInstance(set, norm.L2{}, in.Radius*s)
		if err != nil {
			t.Fatal(err)
		}
		scaled := make([]vec.V, len(centers))
		for j := range centers {
			scaled[j] = centers[j].Scale(s)
		}
		if got := in2.Objective(scaled); math.Abs(got-base) > 1e-7*(1+base) {
			t.Fatalf("trial %d: scaling by %v changed objective %v -> %v", trial, s, base, got)
		}
	}
}

// Doubling every weight exactly doubles the objective (linearity in w).
func TestObjectiveWeightLinearity(t *testing.T) {
	rng := xrand.New(101)
	for trial := 0; trial < 100; trial++ {
		in, centers := randomSetup(t, rng, norm.L1{})
		base := in.Objective(centers)
		ws := make([]float64, in.N())
		for i := range ws {
			ws[i] = 2 * in.Set.Weight(i)
		}
		set, err := in.Set.WithWeights(ws)
		if err != nil {
			t.Fatal(err)
		}
		in2, err := NewInstance(set, in.Norm, in.Radius)
		if err != nil {
			t.Fatal(err)
		}
		if got := in2.Objective(centers); math.Abs(got-2*base) > 1e-9*(1+base) {
			t.Fatalf("trial %d: doubled weights gave %v, want %v", trial, got, 2*base)
		}
	}
}

// Widening the radius never decreases any reward: coverage [1 − d/r]_+ is
// non-decreasing in r.
func TestObjectiveMonotoneInRadius(t *testing.T) {
	rng := xrand.New(103)
	for trial := 0; trial < 100; trial++ {
		in, centers := randomSetup(t, rng, norm.L2{})
		base := in.Objective(centers)
		in2, err := NewInstance(in.Set, in.Norm, in.Radius*rng.Uniform(1, 3))
		if err != nil {
			t.Fatal(err)
		}
		if got := in2.Objective(centers); got < base-1e-9 {
			t.Fatalf("trial %d: larger radius decreased objective %v -> %v", trial, base, got)
		}
	}
}

// ApplyRound in any center order reaches the same final residuals-derived
// total (Σ gains == f(C) regardless of commit order).
func TestApplyRoundOrderInvariantTotal(t *testing.T) {
	rng := xrand.New(107)
	for trial := 0; trial < 100; trial++ {
		in, centers := randomSetup(t, rng, norm.L2{})
		total := func(order []int) float64 {
			y := in.NewResiduals()
			var sum float64
			for _, j := range order {
				g := in.ApplyRound(centers[j], y)
				sum += g
			}
			return sum
		}
		fwd := make([]int, len(centers))
		rev := make([]int, len(centers))
		for i := range fwd {
			fwd[i] = i
			rev[i] = len(centers) - 1 - i
		}
		a, b := total(fwd), total(rev)
		if math.Abs(a-b) > 1e-9*(1+a) {
			t.Fatalf("trial %d: commit order changed total %v vs %v", trial, a, b)
		}
	}
}
