package spatial

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/norm"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func randPoints(rng *xrand.Rand, n, dim int, lo, hi float64) []vec.V {
	pts := make([]vec.V, n)
	for i := range pts {
		p := vec.New(dim)
		for d := range p {
			p[d] = rng.Uniform(lo, hi)
		}
		pts[i] = p
	}
	return pts
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(nil, 1); err == nil {
		t.Error("empty set accepted")
	}
	pts := []vec.V{vec.Of(0, 0)}
	for _, r := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewGrid(pts, r); err == nil {
			t.Errorf("radius %v accepted", r)
		}
	}
	if _, err := NewGrid([]vec.V{vec.Of(0, 0), vec.Of(1)}, 1); err == nil {
		t.Error("dim mismatch accepted")
	}
	g, err := NewGrid(pts, 1)
	if err != nil || g.N() != 1 {
		t.Fatalf("valid grid rejected: %v", err)
	}
}

// Property: AppendNear is a superset of the exact within-radius set for every
// p-norm, at interior, boundary, and exterior query points.
func TestNearIsConservative(t *testing.T) {
	rng := xrand.New(7)
	norms := []norm.Norm{norm.L1{}, norm.L2{}, norm.LInf{}, norm.LP{Exp: 3}}
	for trial := 0; trial < 100; trial++ {
		dim := rng.IntRange(1, 4)
		n := rng.IntRange(1, 60)
		r := rng.Uniform(0.2, 2)
		pts := randPoints(rng, n, dim, 0, 4)
		g, err := NewGrid(pts, r)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			c := vec.New(dim)
			for d := range c {
				c[d] = rng.Uniform(-2, 6) // include exterior queries
			}
			got := g.AppendNear(nil, c)
			in := map[int32]bool{}
			for _, i := range got {
				in[i] = true
			}
			for _, nm := range norms {
				for i, p := range pts {
					if nm.Dist(c, p) <= r && !in[int32(i)] {
						t.Fatalf("trial %d: %s: point %d at dist %v <= r=%v missing from AppendNear",
							trial, nm.Name(), i, nm.Dist(c, p), r)
					}
				}
			}
		}
	}
}

func TestNearNoDuplicates(t *testing.T) {
	rng := xrand.New(11)
	pts := randPoints(rng, 200, 2, 0, 4)
	g, err := NewGrid(pts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 50; q++ {
		c := vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4))
		got := g.AppendNear(nil, c)
		slices.Sort(got)
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Fatalf("duplicate index %d in AppendNear result", got[i])
			}
		}
	}
}

func TestNearPrunes(t *testing.T) {
	// Points spread widely with a small radius: a query must return far
	// fewer candidates than n.
	rng := xrand.New(13)
	pts := randPoints(rng, 1000, 2, 0, 100)
	g, err := NewGrid(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for q := 0; q < 20; q++ {
		c := vec.Of(rng.Uniform(0, 100), rng.Uniform(0, 100))
		total += len(g.AppendNear(nil, c))
	}
	if avg := float64(total) / 20; avg > 50 {
		t.Errorf("average AppendNear size %v — index not pruning", avg)
	}
}

func TestNearFarOutsideReturnsNil(t *testing.T) {
	pts := []vec.V{vec.Of(0, 0), vec.Of(1, 1)}
	g, err := NewGrid(pts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.AppendNear(nil, vec.Of(50, 50)); got != nil {
		t.Errorf("far query returned %v", got)
	}
	if got := g.AppendNear(nil, vec.Of(1, 2, 3)); got != nil {
		t.Errorf("dim-mismatched query returned %v", got)
	}
}

// Regression: converting an out-of-int-range float cell coordinate with
// int(...) is implementation-defined in Go (spec §Conversions); before the
// float-space clamp, queries at ±1e300, NaN, or ±Inf produced a garbage
// neighbor window instead of a clean miss.
func TestNearNonFiniteAndHugeQueries(t *testing.T) {
	rng := xrand.New(17)
	pts := randPoints(rng, 50, 2, 0, 4)
	g, err := NewGrid(pts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bad := []float64{1e300, -1e300, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, x := range bad {
		for _, q := range []vec.V{vec.Of(x, 2), vec.Of(2, x), vec.Of(x, x)} {
			if got := g.AppendNear(nil, q); got != nil {
				t.Errorf("AppendNear(%v) = %v, want nil", q, got)
			}
		}
	}
	// Sanity: a legitimate interior query still works after the clamp.
	if got := g.AppendNear(nil, pts[0]); len(got) == 0 {
		t.Error("interior query returned nothing")
	}
}

// Regression: a bounding box huge relative to r used to overflow the
// flattened cell id (id = id*extents[d] + c[d] in int), silently aliasing
// cells. The grid must detect that regime, fall back to hashed bucket keys,
// and stay conservative.
func TestNewGridExtremeExtents(t *testing.T) {
	// ~1e18 cells per dimension: the per-dimension count fits an int but
	// the 2-D product overflows.
	pts := []vec.V{
		vec.Of(0, 0), vec.Of(0.3, 0.4), vec.Of(1e12, 1e12), vec.Of(1e12+0.5, 1e12),
	}
	g, err := NewGrid(pts, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if g.hbuckets == nil {
		t.Fatal("extreme-extents grid did not fall back to hashed buckets")
	}
	for i, p := range pts {
		found := false
		for _, j := range g.AppendNear(nil, p) {
			if int(j) == i {
				found = true
			}
		}
		if !found {
			t.Errorf("AppendNear(point %d) missed the point itself", i)
		}
	}
	// A query between the clusters has no neighbors within Chebyshev r.
	if got := g.AppendNear(nil, vec.Of(5e11, 5e11)); len(got) != 0 {
		t.Errorf("mid-gap query returned %v", got)
	}

	// Per-dimension extent beyond the clamp cap: far cells collapse onto
	// the boundary cell, which must remain reachable (conservatively) so
	// indexed far points are never lost.
	pts = []vec.V{vec.Of(0), vec.Of(1e300)}
	g, err = NewGrid(pts, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !g.clamped[0] {
		t.Fatal("1e303-cell dimension not clamped")
	}
	for i, p := range pts {
		found := false
		for _, j := range g.AppendNear(nil, p) {
			if int(j) == i {
				found = true
			}
		}
		if !found {
			t.Errorf("clamped grid: AppendNear(point %d) missed the point itself", i)
		}
	}
}

// The hashed fallback must behave exactly like the int-keyed grid. Build a
// normal instance, force the hashed representation, and compare AppendNear results.
func TestHashedBucketsMatchIntBuckets(t *testing.T) {
	rng := xrand.New(19)
	pts := randPoints(rng, 300, 3, 0, 10)
	g, err := NewGrid(pts, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	h := &Grid{cell: g.cell, dim: g.dim, origin: g.origin, extents: g.extents,
		clamped: g.clamped, n: g.n, hbuckets: map[string][]int{}}
	var key []byte
	for id, idxs := range g.buckets {
		// Reconstruct the cell coordinates from the flattened id.
		c := make([]int, g.dim)
		for d := g.dim - 1; d >= 0; d-- {
			c[d] = id % g.extents[d]
			id /= g.extents[d]
		}
		key = appendCellKey(key[:0], c)
		h.hbuckets[string(key)] = idxs
	}
	for q := 0; q < 200; q++ {
		c := vec.New(3)
		for d := range c {
			c[d] = rng.Uniform(-2, 12)
		}
		a, b := g.AppendNear(nil, c), h.AppendNear(nil, c)
		slices.Sort(a)
		slices.Sort(b)
		if len(a) != len(b) {
			t.Fatalf("query %v: int-keyed %d results, hashed %d", c, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %v: results differ: %v vs %v", c, a, b)
			}
		}
	}
}

func TestSinglePointGrid(t *testing.T) {
	g, err := NewGrid([]vec.V{vec.Of(2, 2)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := g.AppendNear(nil, vec.Of(2.5, 2.5))
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("AppendNear = %v", got)
	}
}

// TestCellsCoverAndSort: Cells enumerates every point exactly once, in a
// strictly increasing lexicographic coordinate sweep, and the bucket lookup
// round-trips every returned coordinate. The shard partitioner depends on
// both properties for deterministic balanced splits.
func TestCellsCoverAndSort(t *testing.T) {
	rng := xrand.New(23)
	for trial := 0; trial < 20; trial++ {
		dim := rng.IntRange(1, 4)
		n := rng.IntRange(1, 200)
		pts := randPoints(rng, n, dim, 0, 4)
		g, err := NewGrid(pts, rng.Uniform(0.3, 1.5))
		if err != nil {
			t.Fatal(err)
		}
		cells := g.Cells()
		seen := map[int]bool{}
		for i, c := range cells {
			if len(c.Coord) != dim {
				t.Fatalf("trial %d: cell coord dim %d, want %d", trial, len(c.Coord), dim)
			}
			if len(c.Points) == 0 {
				t.Fatalf("trial %d: empty cell returned", trial)
			}
			for _, p := range c.Points {
				if seen[p] {
					t.Fatalf("trial %d: point %d in two cells", trial, p)
				}
				seen[p] = true
			}
			if i > 0 {
				prev := cells[i-1].Coord
				less := false
				for d := range prev {
					if prev[d] != c.Coord[d] {
						less = prev[d] < c.Coord[d]
						break
					}
				}
				if !less {
					t.Fatalf("trial %d: cells not strictly sorted: %v then %v", trial, prev, c.Coord)
				}
			}
			if got, _ := g.bucket(nil, c.Coord); !reflect.DeepEqual(got, c.Points) {
				t.Fatalf("trial %d: bucket(%v) = %v, Cells says %v", trial, c.Coord, got, c.Points)
			}
		}
		if len(seen) != n {
			t.Fatalf("trial %d: cells cover %d points, want %d", trial, len(seen), n)
		}
	}
}

// TestCellsHashedMatchesInt: the hashed-bucket fallback enumerates the same
// cells (coords and membership) as the int-keyed fast path.
func TestCellsHashedMatchesInt(t *testing.T) {
	rng := xrand.New(29)
	pts := randPoints(rng, 250, 2, 0, 8)
	g, err := NewGrid(pts, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	h := &Grid{cell: g.cell, dim: g.dim, origin: g.origin, extents: g.extents,
		clamped: g.clamped, n: g.n, hbuckets: map[string][]int{}}
	var key []byte
	for id, idxs := range g.buckets {
		key = appendCellKey(key[:0], g.cellCoords(id))
		h.hbuckets[string(key)] = idxs
	}
	a, b := g.Cells(), h.Cells()
	if len(a) != len(b) {
		t.Fatalf("int grid has %d cells, hashed %d", len(a), len(b))
	}
	for i := range a {
		for d := range a[i].Coord {
			if a[i].Coord[d] != b[i].Coord[d] {
				t.Fatalf("cell %d: coords differ: %v vs %v", i, a[i].Coord, b[i].Coord)
			}
		}
		as, bs := append([]int{}, a[i].Points...), append([]int{}, b[i].Points...)
		sort.Ints(as)
		sort.Ints(bs)
		for j := range as {
			if as[j] != bs[j] {
				t.Fatalf("cell %d: membership differs", i)
			}
		}
	}
}

// TestCellPointsOutOfRange: a cell's points looked up (EachCellNear with
// zero rings) at an unknown, empty, or mis-dimensioned coordinate answer
// nothing rather than panicking; an occupied cell answers its points.
func TestCellPointsOutOfRange(t *testing.T) {
	g, err := NewGrid([]vec.V{vec.Of(0, 0), vec.Of(3, 3)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, coord := range [][]int{{-1, 0}, {99, 0}, {1, 1}, {0}, {0, 0, 0}, nil} {
		g.EachCellNear(coord, 0, func(c Cell) {
			t.Errorf("cell %v answered %v, want nothing", coord, c.Points)
		})
	}
	var got []int
	g.EachCellNear([]int{3, 3}, 0, func(c Cell) { got = append(got, c.Points...) })
	if !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("cell [3 3] answered %v, want [1]", got)
	}
}

// TestNewGridAllocs: NewGrid groups the points with a constant number of
// allocations, not one or more per point: 50,000 points over the same 400
// occupied cells allocate within a small constant of 2,000 points.
func TestNewGridAllocs(t *testing.T) {
	pts := func(n int) []vec.V {
		rng := xrand.New(53)
		out := make([]vec.V, 0, n)
		for i := 0; i < 20; i++ { // one point at each cell's center fixes the cells
			for j := 0; j < 20; j++ {
				out = append(out, vec.Of(float64(i)+0.5, float64(j)+0.5))
			}
		}
		for len(out) < n {
			out = append(out, vec.Of(rng.Uniform(0.5, 19.5), rng.Uniform(0.5, 19.5)))
		}
		return out
	}
	allocs := func(p []vec.V) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := NewGrid(p, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(pts(2000)), allocs(pts(50000))
	if large > small+4 {
		t.Fatalf("NewGrid allocates %.0f times at n = 50,000, %.0f at n = 2,000", large, small)
	}
}

// TestGroupByKey: the radix grouping equals a stable sort by key, for key
// spaces of one key, a single counting pass, and several passes.
func TestGroupByKey(t *testing.T) {
	rng := xrand.New(59)
	for _, n := range []int{1, 2, 17, 3000} {
		for _, space := range []int{1, 2, 7, 1000, 1 << 40, math.MaxInt} {
			key := make([]int, n)
			for i := range key {
				key[i] = int(rng.Uint64() % uint64(space))
			}
			orig := append([]int(nil), key...)
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool { return key[want[a]] < key[want[b]] })
			if got := groupByKey(key, space); !reflect.DeepEqual(got, want) {
				t.Fatalf("n %d, space %d: grouped %v, want %v", n, space, got, want)
			}
			if !reflect.DeepEqual(key, orig) {
				t.Fatalf("n %d, space %d: keys changed", n, space)
			}
		}
	}
}

// lattice returns the side^dim points of a regular lattice spanning [0, 4]
// in every dimension, so Prunes sees exact bounds.
func lattice(dim, side int) []vec.V {
	pts := []vec.V{vec.New(dim)}
	for d := 0; d < dim; d++ {
		var next []vec.V
		for _, p := range pts {
			for i := 0; i < side; i++ {
				q := append(vec.V(nil), p...)
				q[d] = 4 * float64(i) / float64(side-1)
				next = append(next, q)
			}
		}
		pts = next
	}
	return pts
}

func TestPrunes(t *testing.T) {
	same := make([]vec.V, 500)
	for i := range same {
		same[i] = vec.Of(1, 2)
	}
	for _, c := range []struct {
		name   string
		pts    []vec.V
		radius float64
		want   bool
	}{
		{"400 points, 2 cells a side", lattice(2, 20), 2.5, false},
		{"400 points, 3 cells a side", lattice(2, 20), 1.5, true},
		{"196 points, 3 cells a side", lattice(2, 14), 1.5, false},
		{"225 points, 4 cells a side", lattice(2, 15), 1.2, true},
		{"100 points at a tiny radius", lattice(2, 10), 0.001, false},
		{"512 points in 3-D", lattice(3, 8), 1, true},
		{"1-D, 500 points", lattice(1, 500), 0.1, true},
		{"500 copies of one point", same, 0.1, false},
		{"no points", nil, 1, false},
		{"zero radius", lattice(2, 20), 0, false},
		{"NaN radius", lattice(2, 20), math.NaN(), false},
	} {
		if got := Prunes(flatten(c.pts), dimOf(c.pts), c.radius); got != c.want {
			t.Errorf("%s, r = %v: Prunes = %v, want %v", c.name, c.radius, got, c.want)
		}
	}
}

// flatten copies pts into one row-major array, the layout NewGridCoords
// and Prunes read.
func flatten(pts []vec.V) []float64 {
	var flat []float64
	for _, p := range pts {
		flat = append(flat, p...)
	}
	return flat
}

// dimOf is the dimension of pts, 0 for none.
func dimOf(pts []vec.V) int {
	if len(pts) == 0 {
		return 0
	}
	return pts[0].Dim()
}

// forceHashed returns a copy of the int-keyed grid g keyed by strings, as
// a grid whose cell ids overflow an int is.
func forceHashed(g *Grid) *Grid {
	h := &Grid{cell: g.cell, dim: g.dim, origin: g.origin, extents: g.extents,
		clamped: g.clamped, n: g.n, hbuckets: map[string][]int{}}
	for id, idxs := range g.buckets {
		h.hbuckets[string(appendCellKey(nil, g.cellCoords(id)))] = idxs
	}
	return h
}

// TestNewGridCoordsMatchesNewGrid: the row-major constructor and the
// per-point NewGrid index every contract case identically: the same
// Cells(), CellOf() and windows. Rows that do not fit the dimension are
// rejected.
func TestNewGridCoordsMatchesNewGrid(t *testing.T) {
	for _, tc := range contractCases() {
		a, err := NewGrid(tc.pts, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewGridCoords(flatten(tc.pts), dimOf(tc.pts), tc.r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Cells(), b.Cells()) || !reflect.DeepEqual(a.CellOf(), b.CellOf()) {
			t.Fatalf("%s: cells or cell positions differ", tc.name)
		}
		a.FillWindows()
		for _, c := range tc.queries {
			if wa, wb := a.AppendNear(nil, c), b.AppendNear(nil, c); !reflect.DeepEqual(wa, wb) {
				t.Fatalf("%s: query %v: window %v from NewGrid, %v from NewGridCoords", tc.name, c, wa, wb)
			}
		}
	}
	for _, c := range []struct {
		coords []float64
		dim    int
	}{{nil, 2}, {[]float64{1, 2, 3}, 2}, {[]float64{1, 2}, 0}} {
		if _, err := NewGridCoords(c.coords, c.dim, 1); err == nil {
			t.Errorf("NewGridCoords(%v, dim %d) accepted", c.coords, c.dim)
		}
	}
}

// TestCellOfBothKeyModes: on an int-keyed grid and on the same grid forced
// onto hashed keys, CellOf maps every point to the Cells() entry holding
// it, and the two modes agree. A hashed grid's first CellOf call builds
// its cells.
func TestCellOfBothKeyModes(t *testing.T) {
	pts := randPoints(xrand.New(53), 300, 3, 0, 10)
	g, err := NewGrid(pts, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	h := forceHashed(g)
	for _, grid := range []*Grid{g, h} {
		cellOf := grid.CellOf()
		cells := grid.Cells()
		if len(cellOf) != len(pts) {
			t.Fatalf("hashed %v: %d cell positions for %d points", grid.hbuckets != nil, len(cellOf), len(pts))
		}
		for i, j := range cellOf {
			if !slices.Contains(cells[j].Points, i) {
				t.Fatalf("hashed %v: point %d mapped to cell %v, which does not hold it", grid.hbuckets != nil, i, cells[j].Coord)
			}
		}
	}
	if !reflect.DeepEqual(g.Cells(), h.Cells()) || !reflect.DeepEqual(g.CellOf(), h.CellOf()) {
		t.Fatal("hashed keys list other cells or positions than int keys")
	}
}
