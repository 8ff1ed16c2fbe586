package pointset

import (
	"math"
	"testing"

	"repro/internal/vec"
)

func deltaSet(t *testing.T) *Set {
	t.Helper()
	s, err := New(
		[]vec.V{{0, 0}, {1, 1}, {2, 2}, {3, 3}},
		[]float64{1, 2, 3, 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkFlat asserts the flat row-major view still mirrors the per-point view
// after a delta — the batched kernels read Coords, so any divergence breaks
// the bit-identity invariant silently.
func checkFlat(t *testing.T, s *Set) {
	t.Helper()
	if len(s.Coords()) != s.Len()*s.Dim() {
		t.Fatalf("coords len %d, want %d", len(s.Coords()), s.Len()*s.Dim())
	}
	for i := 0; i < s.Len(); i++ {
		row := s.Coords()[i*s.Dim() : (i+1)*s.Dim()]
		for d, x := range s.Point(i) {
			if row[d] != x {
				t.Fatalf("coords[%d][%d] = %v, point = %v", i, d, row[d], x)
			}
		}
	}
}

func TestAppend(t *testing.T) {
	s := deltaSet(t)
	p := vec.V{9, 9}
	i, err := s.Append(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if i != 4 || s.Len() != 5 || s.Weight(4) != 5 {
		t.Fatalf("append: i=%d len=%d w=%v", i, s.Len(), s.Weight(4))
	}
	p[0] = -1 // Append must have cloned
	if s.Point(4)[0] != 9 {
		t.Error("Append aliased the caller's point")
	}
	checkFlat(t, s)
}

func TestAppendRejects(t *testing.T) {
	s := deltaSet(t)
	for _, tc := range []struct {
		name string
		p    vec.V
		w    float64
	}{
		{"dim", vec.V{1}, 1},
		{"nan-coord", vec.V{math.NaN(), 0}, 1},
		{"inf-coord", vec.V{0, math.Inf(1)}, 1},
		{"neg-weight", vec.V{0, 0}, -1},
		{"nan-weight", vec.V{0, 0}, math.NaN()},
	} {
		if _, err := s.Append(tc.p, tc.w); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if s.Len() != 4 {
		t.Errorf("rejected appends mutated the set: len=%d", s.Len())
	}
	checkFlat(t, s)
}

func TestRemoveSwapMiddle(t *testing.T) {
	s := deltaSet(t)
	moved, err := s.RemoveSwap(1)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 3 {
		t.Fatalf("moved = %d, want 3", moved)
	}
	if s.Len() != 3 || s.Point(1)[0] != 3 || s.Weight(1) != 4 {
		t.Fatalf("slot 1 after swap: p=%v w=%v", s.Point(1), s.Weight(1))
	}
	checkFlat(t, s)
}

func TestRemoveSwapLast(t *testing.T) {
	s := deltaSet(t)
	moved, err := s.RemoveSwap(3)
	if err != nil {
		t.Fatal(err)
	}
	if moved != -1 {
		t.Fatalf("moved = %d, want -1", moved)
	}
	if s.Len() != 3 || s.Point(2)[0] != 2 {
		t.Fatalf("set after last-slot removal: len=%d", s.Len())
	}
	checkFlat(t, s)
}

func TestRemoveSwapRejects(t *testing.T) {
	s := deltaSet(t)
	for _, i := range []int{-1, 4} {
		if _, err := s.RemoveSwap(i); err == nil {
			t.Errorf("index %d accepted", i)
		}
	}
	one, err := New([]vec.V{{0}}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.RemoveSwap(0); err == nil {
		t.Error("removing the only point accepted")
	}
}

func TestSetWeightDelta(t *testing.T) {
	s := deltaSet(t)
	if err := s.SetWeight(2, 7); err != nil || s.Weight(2) != 7 {
		t.Fatalf("SetWeight: %v, w=%v", err, s.Weight(2))
	}
	for _, tc := range []struct {
		i int
		w float64
	}{{-1, 1}, {4, 1}, {0, -1}, {0, math.NaN()}, {0, math.Inf(1)}} {
		if err := s.SetWeight(tc.i, tc.w); err == nil {
			t.Errorf("SetWeight(%d, %v) accepted", tc.i, tc.w)
		}
	}
}

func TestClone(t *testing.T) {
	s := deltaSet(t)
	cp := s.Clone()
	if _, err := cp.Append(vec.V{8, 8}, 1); err != nil {
		t.Fatal(err)
	}
	if err := cp.SetWeight(1, 99); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.RemoveSwap(0); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 || s.Point(0)[0] != 0 || s.Weight(1) != 2 {
		t.Error("mutating the clone touched the original")
	}
	checkFlat(t, cp)
	// Clone must deep-copy point storage, not alias it.
	cp.Point(1)[0] = -5
	if s.Point(1)[0] != 1 {
		t.Error("Clone aliased point storage")
	}
}

// TestDecodedSetDeltas: a decoded set's point views slice a backing array
// of their own, each capped at dim, so interleaved RemoveSwap and Append,
// which rewrite the flat coordinates in place, keep every Point(i) equal
// to its Coords() row and never move a view a caller holds.
func TestDecodedSetDeltas(t *testing.T) {
	var s Set
	if err := s.UnmarshalJSON([]byte(`{"points":[[0,0],[1,1],[2,2],[3,3],[4,4]],"weights":[1,2,3,4,5]}`)); err != nil {
		t.Fatal(err)
	}
	held := s.Point(2)
	if cap(held) != len(held) {
		t.Fatalf("point view has cap %d, want %d", cap(held), len(held))
	}
	for step := 0; step < 8; step++ {
		if _, err := s.RemoveSwap(step % s.Len()); err != nil {
			t.Fatal(err)
		}
		checkFlat(t, &s)
		if _, err := s.Append(vec.V{float64(10 + step), float64(-step)}, 1); err != nil {
			t.Fatal(err)
		}
		checkFlat(t, &s)
	}
	if held[0] != 2 || held[1] != 2 {
		t.Errorf("a held point view moved to %v", held)
	}
}
