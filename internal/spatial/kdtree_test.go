package spatial

import (
	"math"
	"sort"
	"testing"

	"repro/internal/norm"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func TestNewKDTreeValidation(t *testing.T) {
	if _, err := NewKDTree(nil, 1); err == nil {
		t.Error("empty set accepted")
	}
	pts := []vec.V{vec.Of(0, 0)}
	for _, r := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewKDTree(pts, r); err == nil {
			t.Errorf("radius %v accepted", r)
		}
	}
	if _, err := NewKDTree([]vec.V{vec.Of(0, 0), vec.Of(1)}, 1); err == nil {
		t.Error("dim mismatch accepted")
	}
	tree, err := NewKDTree(pts, 1)
	if err != nil || tree.N() != 1 {
		t.Fatalf("valid tree rejected: %v", err)
	}
}

// KDTree.AppendNear must append exactly the Chebyshev-ball membership set —
// the same semantics Grid.AppendNear is conservative toward — so compare
// against a brute-force Chebyshev scan, and check conservativeness for all p-norms.
func TestKDTreeNearExactChebyshev(t *testing.T) {
	rng := xrand.New(71)
	linf := norm.LInf{}
	for trial := 0; trial < 100; trial++ {
		dim := rng.IntRange(1, 4)
		n := rng.IntRange(1, 80)
		r := rng.Uniform(0.2, 2)
		pts := randPoints(rng, n, dim, 0, 4)
		tree, err := NewKDTree(pts, r)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			c := vec.New(dim)
			for d := range c {
				c[d] = rng.Uniform(-1, 5)
			}
			got := tree.AppendNear(nil, c)
			sort.Ints(got)
			var want []int
			for i, p := range pts {
				if linf.Dist(c, p) <= r {
					want = append(want, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: |AppendNear| = %d, want %d", trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: AppendNear = %v, want %v", trial, got, want)
				}
			}
		}
	}
}

// Grid and KDTree must agree on the points they are both required to return
// (the within-radius set under any p-norm).
func TestKDTreeAgreesWithGridConservatively(t *testing.T) {
	rng := xrand.New(73)
	l2 := norm.L2{}
	for trial := 0; trial < 50; trial++ {
		n := rng.IntRange(2, 60)
		r := rng.Uniform(0.3, 1.5)
		pts := randPoints(rng, n, 2, 0, 4)
		tree, err := NewKDTree(pts, r)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := NewGrid(pts, r)
		if err != nil {
			t.Fatal(err)
		}
		c := vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4))
		inTree := map[int]bool{}
		for _, i := range tree.AppendNear(nil, c) {
			inTree[i] = true
		}
		inGrid := map[int]bool{}
		for _, i := range grid.AppendNear(nil, c) {
			inGrid[i] = true
		}
		for i, p := range pts {
			if l2.Dist(c, p) <= r {
				if !inTree[i] || !inGrid[i] {
					t.Fatalf("trial %d: point %d within r missing (tree %v grid %v)", trial, i, inTree[i], inGrid[i])
				}
			}
		}
	}
}

func TestKDTreeFarQuery(t *testing.T) {
	tree, err := NewKDTree([]vec.V{vec.Of(0, 0), vec.Of(1, 1)}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.AppendNear(nil, vec.Of(50, 50)); len(got) != 0 {
		t.Errorf("far query returned %v", got)
	}
	if got := tree.AppendNear(nil, vec.Of(1, 2, 3)); got != nil {
		t.Errorf("dim mismatch returned %v", got)
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	pts := []vec.V{vec.Of(1, 1), vec.Of(1, 1), vec.Of(1, 1), vec.Of(3, 3)}
	tree, err := NewKDTree(pts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got := tree.AppendNear(nil, vec.Of(1, 1))
	if len(got) != 3 {
		t.Fatalf("AppendNear = %v, want the three duplicates", got)
	}
}

// Regression: a NaN-coordinate query used to return the root as a bogus
// candidate — NaN comparisons are all false, so the recursive descent pruned
// both subtrees everywhere while the root's |Δ| > r box test also failed to
// exclude it. Non-finite queries must append nothing, exactly like
// Grid.AppendNear.
func TestKDTreeNonFiniteQuery(t *testing.T) {
	tree, err := NewKDTree([]vec.V{vec.Of(0, 0), vec.Of(1, 1), vec.Of(2, 2)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []vec.V{
		vec.Of(math.NaN(), 0),
		vec.Of(0, math.NaN()),
		vec.Of(math.NaN(), math.NaN()),
		vec.Of(math.Inf(1), 0),
		vec.Of(0, math.Inf(-1)),
	} {
		if got := tree.AppendNear(nil, c); got != nil {
			t.Errorf("AppendNear(%v) = %v, want nil", c, got)
		}
	}
}
