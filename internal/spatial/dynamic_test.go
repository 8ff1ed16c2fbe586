package spatial

import (
	"math"
	"sort"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// dynBuilders enumerates the two inner-index backends under test.
var dynBuilders = []struct {
	name string
	mk   func(pts []vec.V, r float64) (*Dynamic, error)
}{
	{"grid", NewDynamicGrid},
	{"kdtree", NewDynamicKDTree},
}

// chebWithin returns the indices of pts within Chebyshev distance r of c, in
// ascending order — the set every conservative AppendNear must contain.
func chebWithin(pts []vec.V, c vec.V, r float64) []int {
	var out []int
	for i, p := range pts {
		within := true
		for d := range p {
			if math.Abs(p[d]-c[d]) > r {
				within = false
				break
			}
		}
		if within {
			out = append(out, i)
		}
	}
	return out
}

// TestDynamicChurnConservative drives a random insert/remove sequence against
// a mirrored plain slice and checks after every mutation that AppendNear (a) is
// sorted with no duplicates, (b) never returns a dead index, and (c) contains
// every live point within Chebyshev distance r — the conservativeness
// contract the reward evaluator's accelerated sums depend on.
func TestDynamicChurnConservative(t *testing.T) {
	for _, tb := range dynBuilders {
		t.Run(tb.name, func(t *testing.T) {
			rng := xrand.New(1234)
			const dim = 2
			r := 1.5
			mirror := randPoints(rng, 20, dim, 0, 10)
			d, err := tb.mk(mirror, r)
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 200; op++ {
				if rng.Bernoulli(0.55) || len(mirror) < 2 {
					p := randPoints(rng, 1, dim, 0, 10)[0]
					if err := d.Insert(p); err != nil {
						t.Fatalf("op %d: Insert: %v", op, err)
					}
					mirror = append(mirror, p)
				} else {
					i := rng.Intn(len(mirror))
					if err := d.RemoveSwap(i); err != nil {
						t.Fatalf("op %d: RemoveSwap(%d): %v", op, i, err)
					}
					last := len(mirror) - 1
					mirror[i] = mirror[last]
					mirror = mirror[:last]
				}
				if d.N() != len(mirror) {
					t.Fatalf("op %d: N = %d, mirror %d", op, d.N(), len(mirror))
				}
				for q := 0; q < 3; q++ {
					c := randPoints(rng, 1, dim, -1, 11)[0]
					got := d.AppendNear(nil, c)
					if !sort.IntsAreSorted(got) {
						t.Fatalf("op %d: AppendNear not sorted: %v", op, got)
					}
					seen := map[int]bool{}
					for _, i := range got {
						if i < 0 || i >= len(mirror) {
							t.Fatalf("op %d: AppendNear returned dead index %d (n=%d)", op, i, len(mirror))
						}
						if seen[i] {
							t.Fatalf("op %d: duplicate index %d in %v", op, i, got)
						}
						seen[i] = true
					}
					for _, i := range chebWithin(mirror, c, r) {
						if !seen[i] {
							t.Fatalf("op %d: AppendNear missed in-window index %d (query %v)", op, i, c)
						}
					}
				}
			}
			if d.rebuilds < 2 {
				t.Errorf("200 mutations triggered only %d rebuilds", d.rebuilds)
			}
		})
	}
}

// TestDynamicSwapRelabel pins the relabeling contract: after RemoveSwap(i)
// the old last index answers queries as index i, whether it was inner-backed
// or loose at the time.
func TestDynamicSwapRelabel(t *testing.T) {
	for _, tb := range dynBuilders {
		t.Run(tb.name, func(t *testing.T) {
			pts := []vec.V{vec.Of(0, 0), vec.Of(5, 5), vec.Of(10, 10)}
			d, err := tb.mk(pts, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Inner-backed case: index 2 (10,10) moves into slot 0.
			if err := d.RemoveSwap(0); err != nil {
				t.Fatal(err)
			}
			if got := d.AppendNear(nil, vec.Of(10, 10)); len(got) != 1 || got[0] != 0 {
				t.Fatalf("after inner swap AppendNear(10,10) = %v, want [0]", got)
			}
			if got := d.AppendNear(nil, vec.Of(0, 0)); len(got) != 0 {
				t.Fatalf("removed point still found: %v", got)
			}
			// Loose case: insert (20,20) as index 2, then swap it into slot 1.
			if err := d.Insert(vec.Of(20, 20)); err != nil {
				t.Fatal(err)
			}
			if err := d.RemoveSwap(1); err != nil {
				t.Fatal(err)
			}
			if got := d.AppendNear(nil, vec.Of(20, 20)); len(got) != 1 || got[0] != 1 {
				t.Fatalf("after loose swap AppendNear(20,20) = %v, want [1]", got)
			}
			if got := d.AppendNear(nil, vec.Of(5, 5)); len(got) != 0 {
				t.Fatalf("removed point still found: %v", got)
			}
		})
	}
}

// TestDynamicRebuildPolicy checks the amortization contract: debt accumulates
// up to max(32, live/4) without a rebuild, then one mutation past the
// threshold rebuilds and resets the pending counts.
func TestDynamicRebuildPolicy(t *testing.T) {
	rng := xrand.New(9)
	pts := randPoints(rng, 4, 2, 0, 10)
	d, err := NewDynamicGrid(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.rebuilds != 1 {
		t.Fatalf("construction rebuilds = %d, want 1", d.rebuilds)
	}
	for i := 0; i < dynamicRebuildMin; i++ {
		if err := d.Insert(randPoints(rng, 1, 2, 0, 10)[0]); err != nil {
			t.Fatal(err)
		}
	}
	if d.rebuilds != 1 {
		t.Fatalf("rebuild fired below threshold (rebuilds = %d)", d.rebuilds)
	}
	if tomb, loose := d.dead, len(d.loose); tomb != 0 || loose != dynamicRebuildMin {
		t.Fatalf("pending = %d/%d, want 0/%d", tomb, loose, dynamicRebuildMin)
	}
	// 4+32 = 36 live, slack still 32: one more mutation crosses the line.
	if err := d.Insert(randPoints(rng, 1, 2, 0, 10)[0]); err != nil {
		t.Fatal(err)
	}
	if d.rebuilds != 2 {
		t.Fatalf("rebuild did not fire past threshold (rebuilds = %d)", d.rebuilds)
	}
	if tomb, loose := d.dead, len(d.loose); tomb != 0 || loose != 0 {
		t.Fatalf("pending after rebuild = %d/%d, want 0/0", tomb, loose)
	}
}

func TestDynamicValidation(t *testing.T) {
	if _, err := NewDynamicGrid(nil, 1); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewDynamicKDTree([]vec.V{vec.Of(0, 0)}, -1); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := NewDynamicGrid([]vec.V{vec.Of(0, 0), vec.Of(1)}, 1); err == nil {
		t.Error("dim mismatch accepted")
	}
	d, err := NewDynamicGrid([]vec.V{vec.Of(0, 0), vec.Of(1, 1)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(vec.Of(1)); err == nil {
		t.Error("dim-mismatched insert accepted")
	}
	if err := d.Insert(vec.Of(math.NaN(), 0)); err == nil {
		t.Error("NaN insert accepted")
	}
	for _, i := range []int{-1, 2} {
		if err := d.RemoveSwap(i); err == nil {
			t.Errorf("RemoveSwap(%d) accepted", i)
		}
	}
	if err := d.RemoveSwap(0); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveSwap(0); err == nil {
		t.Error("removing the only point accepted")
	}
}

// TestDynamicNonFiniteQuery mirrors the static indexes: non-finite query
// coordinates return nil instead of leaking through the window tests.
func TestDynamicNonFiniteQuery(t *testing.T) {
	for _, tb := range dynBuilders {
		t.Run(tb.name, func(t *testing.T) {
			d, err := tb.mk([]vec.V{vec.Of(0, 0), vec.Of(1, 1)}, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Push one point into the loose set so both lookup paths run.
			if err := d.Insert(vec.Of(2, 2)); err != nil {
				t.Fatal(err)
			}
			for _, c := range []vec.V{
				vec.Of(math.NaN(), 0),
				vec.Of(0, math.NaN()),
				vec.Of(math.Inf(1), 0),
				vec.Of(0, math.Inf(-1)),
				vec.Of(1, 2, 3),
			} {
				if got := d.AppendNear(nil, c); got != nil {
					t.Errorf("AppendNear(%v) = %v, want nil", c, got)
				}
			}
		})
	}
}
