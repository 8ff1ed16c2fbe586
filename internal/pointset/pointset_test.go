package pointset

import (
	"math"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// checkViews asserts that s holds its coordinates once: Point(i) is row i
// of Coords(), capped at the dimension so an append to one view cannot
// write into the next row, and Points() is a fresh slice of those rows,
// so rebinding one of its elements leaves the set unchanged.
func checkViews(t *testing.T, s *Set) {
	t.Helper()
	flat := s.Coords()
	if len(flat) != s.Len()*s.Dim() {
		t.Fatalf("Coords length %d, want %d", len(flat), s.Len()*s.Dim())
	}
	pts := s.Points()
	if len(pts) != s.Len() {
		t.Fatalf("Points holds %d rows, want %d", len(pts), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		for _, p := range []vec.V{s.Point(i), pts[i]} {
			if len(p) != s.Dim() || cap(p) != s.Dim() {
				t.Fatalf("point %d has len %d cap %d, want %d", i, len(p), cap(p), s.Dim())
			}
			if &p[0] != &flat[i*s.Dim()] {
				t.Fatalf("point %d is not a view of its Coords row", i)
			}
		}
	}
	pts[0] = vec.New(s.Dim() + 1)
	if again := s.Points(); &again[0][0] != &flat[0] || s.Point(0).Dim() != s.Dim() {
		t.Fatal("rebinding an element of Points() changed the set")
	}
}

func TestCoordsFlatLayout(t *testing.T) {
	pts := []vec.V{vec.Of(1, 2), vec.Of(3, 4), vec.Of(5, 6)}
	s, err := UnitWeights(pts)
	if err != nil {
		t.Fatal(err)
	}
	checkViews(t, s)
	flat := s.Coords()
	for i := 0; i < s.Len(); i++ {
		row := flat[i*s.Dim() : (i+1)*s.Dim()]
		for d, x := range pts[i] {
			if row[d] != x {
				t.Errorf("Coords row %d dim %d = %v, want %v", i, d, row[d], x)
			}
		}
	}
	// The flat copy must be independent of the caller's backing arrays.
	pts[0][0] = 99
	if s.Coords()[0] != 1 {
		t.Error("Coords aliases the caller's point storage")
	}
	// Derived sets rebuild their own flat layout.
	sub, err := s.Subset([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	checkViews(t, sub)
	want := []float64{5, 6, 1, 2}
	for i, x := range sub.Coords() {
		if x != want[i] {
			t.Fatalf("Subset Coords = %v, want %v", sub.Coords(), want)
		}
	}
	var dec Set
	if err := dec.UnmarshalJSON([]byte(`{"points":[[0,0],[1,1],[2,2]],"weights":[1,2,3]}`)); err != nil {
		t.Fatal(err)
	}
	checkViews(t, &dec)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := New([]vec.V{vec.Of(1, 2)}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := New([]vec.V{vec.Of(1), vec.Of(1, 2)}, []float64{1, 1}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := New([]vec.V{vec.Of(1, 2)}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := New([]vec.V{vec.Of(1, 2)}, []float64{math.NaN()}); err == nil {
		t.Error("NaN weight accepted")
	}
	if _, err := New([]vec.V{vec.Of(math.Inf(1), 2)}, []float64{1}); err == nil {
		t.Error("non-finite point accepted")
	}
	// Finite weights whose sum overflows would make TotalWeight +Inf,
	// which no JSON answer can carry as max_reward.
	if _, err := New([]vec.V{vec.Of(0, 0), vec.Of(1, 1)}, []float64{1e308, 1e308}); err == nil {
		t.Error("weights summing past float64 accepted")
	}
	if _, err := New([]vec.V{vec.Of(0, 0), vec.Of(1, 1)}, []float64{math.MaxFloat64, 0}); err != nil {
		t.Errorf("weights summing to MaxFloat64 rejected: %v", err)
	}
	s, err := New([]vec.V{vec.Of(1, 2), vec.Of(3, 4)}, []float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Dim() != 2 {
		t.Errorf("Len/Dim = %d/%d", s.Len(), s.Dim())
	}
	if s.Weight(1) != 5 || !s.Point(0).Equal(vec.Of(1, 2)) {
		t.Error("accessors wrong")
	}
	if s.TotalWeight() != 7 {
		t.Errorf("TotalWeight = %v", s.TotalWeight())
	}
}

func TestNewCopiesInputs(t *testing.T) {
	pts := []vec.V{vec.Of(1, 2)}
	ws := []float64{3}
	s, err := New(pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	pts[0][0] = 99
	ws[0] = 99
	if s.Point(0)[0] != 1 || s.Weight(0) != 3 {
		t.Error("Set aliases caller slices")
	}
}

func TestUnitWeights(t *testing.T) {
	s, err := UnitWeights([]vec.V{vec.Of(0, 0), vec.Of(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Len(); i++ {
		if s.Weight(i) != 1 {
			t.Errorf("weight %d = %v", i, s.Weight(i))
		}
	}
}

func TestBounds(t *testing.T) {
	s, _ := UnitWeights([]vec.V{vec.Of(1, 5), vec.Of(3, 2)})
	lo, hi := s.Bounds()
	if !lo.Equal(vec.Of(1, 2)) || !hi.Equal(vec.Of(3, 5)) {
		t.Errorf("Bounds = %v %v", lo, hi)
	}
	// Bounds reads the flat rows; it must agree with vec.Bounds over the
	// row views.
	rng := xrand.New(13)
	for dim := 1; dim <= 3; dim++ {
		for trial := 0; trial < 20; trial++ {
			pts := make([]vec.V, rng.IntRange(1, 40))
			for i := range pts {
				pts[i] = vec.New(dim)
				for d := range pts[i] {
					pts[i][d] = rng.Uniform(-10, 10)
				}
			}
			s, err := UnitWeights(pts)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := s.Bounds()
			wlo, whi, err := vec.Bounds(s.Points())
			if err != nil || !lo.Equal(wlo) || !hi.Equal(whi) {
				t.Fatalf("dim %d, %d points: Bounds = %v %v, vec.Bounds = %v %v (%v)", dim, len(pts), lo, hi, wlo, whi, err)
			}
		}
	}
}

func TestSubset(t *testing.T) {
	s, _ := New([]vec.V{vec.Of(0, 0), vec.Of(1, 1), vec.Of(2, 2)}, []float64{1, 2, 3})
	sub, err := s.Subset([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 || sub.Weight(0) != 3 || !sub.Point(1).Equal(vec.Of(0, 0)) {
		t.Errorf("Subset wrong: %v", sub)
	}
	if _, err := s.Subset([]int{5}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := s.Subset(nil); err == nil {
		t.Error("empty subset accepted")
	}
}

func TestWithWeights(t *testing.T) {
	s, _ := UnitWeights([]vec.V{vec.Of(0, 0), vec.Of(1, 1)})
	s2, err := s.WithWeights([]float64{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Weight(0) != 4 || s.Weight(0) != 1 {
		t.Error("WithWeights wrong or mutated original")
	}
}

func TestBoxSampleContains(t *testing.T) {
	box := PaperBox2D()
	if !box.Valid() || box.Dim() != 2 {
		t.Fatal("PaperBox2D invalid")
	}
	rng := xrand.New(1)
	for i := 0; i < 1000; i++ {
		p := box.Sample(rng)
		if !box.Contains(p) {
			t.Fatalf("sample %v outside box", p)
		}
	}
	if box.Contains(vec.Of(5, 1)) || box.Contains(vec.Of(1, 2, 3)) {
		t.Error("Contains accepted outside/mismatched point")
	}
	bad := Box{Lo: vec.Of(1, 1), Hi: vec.Of(0, 0)}
	if bad.Valid() {
		t.Error("inverted box reported valid")
	}
}

func TestGenUniformPaperSetup(t *testing.T) {
	rng := xrand.New(2)
	s, err := GenUniform(40, PaperBox2D(), RandomIntWeight, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 40 || s.Dim() != 2 {
		t.Fatalf("Len/Dim = %d/%d", s.Len(), s.Dim())
	}
	box := PaperBox2D()
	seen := make(map[float64]bool)
	for i := 0; i < s.Len(); i++ {
		if !box.Contains(s.Point(i)) {
			t.Errorf("point %v outside 4x4 box", s.Point(i))
		}
		w := s.Weight(i)
		if w != math.Trunc(w) || w < 1 || w > 5 {
			t.Errorf("weight %v not an integer in [1,5]", w)
		}
		seen[w] = true
	}
	if len(seen) < 3 {
		t.Errorf("weights not varied: %v", seen)
	}

	u, err := GenUniform(10, PaperBox3D(), UnitWeight, rng)
	if err != nil {
		t.Fatal(err)
	}
	if u.Dim() != 3 || u.TotalWeight() != 10 {
		t.Errorf("3-D unit set wrong: dim=%d total=%v", u.Dim(), u.TotalWeight())
	}
}

func TestGenUniformDeterministic(t *testing.T) {
	a, _ := GenUniform(10, PaperBox2D(), RandomIntWeight, xrand.New(7))
	b, _ := GenUniform(10, PaperBox2D(), RandomIntWeight, xrand.New(7))
	for i := 0; i < 10; i++ {
		if !a.Point(i).Equal(b.Point(i)) || a.Weight(i) != b.Weight(i) {
			t.Fatal("same seed gave different sets")
		}
	}
}

func TestGenUniformRejectsBadArgs(t *testing.T) {
	rng := xrand.New(1)
	if _, err := GenUniform(0, PaperBox2D(), UnitWeight, rng); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := GenUniform(5, Box{Lo: vec.Of(1), Hi: vec.Of(0)}, UnitWeight, rng); err == nil {
		t.Error("invalid box accepted")
	}
	if _, err := GenUniform(5, PaperBox2D(), WeightScheme(99), rng); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestGenClustered(t *testing.T) {
	rng := xrand.New(3)
	s, err := GenClustered(100, 3, 0.2, PaperBox2D(), UnitWeight, rng)
	if err != nil {
		t.Fatal(err)
	}
	box := PaperBox2D()
	for i := 0; i < s.Len(); i++ {
		if !box.Contains(s.Point(i)) {
			t.Fatalf("clustered point %v escaped box", s.Point(i))
		}
	}
	if _, err := GenClustered(10, 0, 0.1, PaperBox2D(), UnitWeight, rng); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := GenClustered(10, 2, -1, PaperBox2D(), UnitWeight, rng); err == nil {
		t.Error("negative sigma accepted")
	}
}

func TestGridPoints(t *testing.T) {
	pts, err := GridPoints(PaperBox2D(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("len = %d, want 9", len(pts))
	}
	// Corners and center must be present.
	want := []vec.V{vec.Of(0, 0), vec.Of(4, 4), vec.Of(2, 2)}
	for _, w := range want {
		found := false
		for _, p := range pts {
			if p.ApproxEqual(w, 1e-12) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("grid missing %v", w)
		}
	}
	one, err := GridPoints(PaperBox2D(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || !one[0].ApproxEqual(vec.Of(2, 2), 1e-12) {
		t.Errorf("per=1 grid = %v", one)
	}
	cube, err := GridPoints(PaperBox3D(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cube) != 64 {
		t.Errorf("3-D grid len = %d, want 64", len(cube))
	}
	if _, err := GridPoints(PaperBox2D(), 0); err == nil {
		t.Error("per=0 accepted")
	}
}

// TestGridPointsOverflowingBox: on ordinary boxes every lattice point keeps
// the bits of lo + (hi−lo)·i/(per−1) and the centre (lo+hi)/2; on a box
// whose width or faces' sum overflows float64, every point is finite, the
// faces are exact and the points ascend.
func TestGridPointsOverflowingBox(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 500; trial++ {
		lo := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntRange(-300, 300)))
		hi := lo + rng.Float64()*math.Pow(10, float64(rng.IntRange(-300, 300)))
		if !(hi > lo) {
			continue
		}
		per := rng.IntRange(1, 9)
		pts, err := GridPoints(Box{Lo: vec.Of(lo), Hi: vec.Of(hi)}, per)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			want := (lo + hi) / 2
			if per > 1 {
				want = lo + (hi-lo)*float64(i)/float64(per-1)
			}
			if math.Float64bits(p[0]) != math.Float64bits(want) {
				t.Fatalf("box [%v, %v] per %d: point %d = %v, the plain formula gives %v", lo, hi, per, i, p[0], want)
			}
		}
	}
	for _, b := range [][2]float64{{-1e308, 1e308}, {-math.MaxFloat64, math.MaxFloat64}, {1e308, math.MaxFloat64}} {
		for _, per := range []int{1, 2, 5, 17} {
			pts, err := GridPoints(Box{Lo: vec.Of(b[0]), Hi: vec.Of(b[1])}, per)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pts {
				if x := p[0]; math.IsNaN(x) || math.IsInf(x, 0) || x < b[0] || x > b[1] || (i > 0 && x < pts[i-1][0]) {
					t.Fatalf("box [%v, %v] per %d: point %d = %v", b[0], b[1], per, i, x)
				}
			}
			if per > 1 && (pts[0][0] != b[0] || pts[per-1][0] != b[1]) {
				t.Errorf("box [%v, %v] per %d: faces %v, %v", b[0], b[1], per, pts[0][0], pts[per-1][0])
			}
		}
	}
}

func TestWeightSchemeString(t *testing.T) {
	if UnitWeight.String() != "same-weight" || RandomIntWeight.String() != "random-weight" {
		t.Error("scheme strings wrong")
	}
	if WeightScheme(9).String() == "" {
		t.Error("unknown scheme string empty")
	}
}
