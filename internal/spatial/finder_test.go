package spatial

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// contractCase is one point set the AppendNear contract is checked on, with
// the query points to ask about.
type contractCase struct {
	name    string
	pts     []vec.V
	r       float64
	queries []vec.V
	capHit  bool // the grid's window cache must fill past its cap
}

// contractCases covers 1-, 2-, 3- and 5-D sets, a hashed-key grid and a
// clamped dimension. Queries mix the indexed points (the usual greedy
// candidates) with interior, exterior and far-cluster points.
func contractCases() []contractCase {
	rng := xrand.New(97)
	mk := func(name string, n, dim int, r, hi float64) contractCase {
		pts := randPoints(rng, n, dim, 0, hi)
		qs := append([]vec.V{}, pts...)
		qs = append(qs, randPoints(rng, 40, dim, -r-1, hi+r+1)...)
		return contractCase{name: name, pts: pts, r: r, queries: qs}
	}
	cases := []contractCase{
		mk("1d", 120, 1, 0.3, 10),
		mk("2d", 400, 2, 0.5, 6),
		mk("3d", 300, 3, 0.8, 5),
	}
	five := mk("5d-cap", 300, 5, 1, 3)
	five.capHit = true
	cases = append(cases, five)

	// ~1e18 cells per dimension: the 2-D id product overflows an int, so
	// the grid keys its buckets by string.
	hashed := []vec.V{vec.Of(0, 0), vec.Of(3e-7, 4e-7), vec.Of(1e12, 1e12), vec.Of(1e12+5e-7, 1e12)}
	cases = append(cases, contractCase{name: "hashed", pts: hashed, r: 1e-6,
		queries: append(append([]vec.V{}, hashed...), vec.Of(5e11, 5e11), vec.Of(1e12+1e-6, 1e12))})

	// A 1e303-cell dimension: far cells collapse onto the boundary cell.
	clamped := []vec.V{vec.Of(0), vec.Of(1e-4), vec.Of(1e300)}
	cases = append(cases, contractCase{name: "clamped", pts: clamped, r: 1e-3,
		queries: append(append([]vec.V{}, clamped...), vec.Of(0.5), vec.Of(math.MaxFloat64))})
	return cases
}

// chebWithin returns the indices of pts within Chebyshev distance r of c, in
// ascending order — the set every conservative AppendNear must contain.
func chebWithin(pts []vec.V, c vec.V, r float64) []int32 {
	var out []int32
	for i, p := range pts {
		within := true
		for d := range p {
			if math.Abs(p[d]-c[d]) > r {
				within = false
				break
			}
		}
		if within {
			out = append(out, int32(i))
		}
	}
	return out
}

// TestAppendNearContract checks the one neighbor-query contract on the
// grid: the appended run is strictly ascending, contains every point
// within Chebyshev distance r (extras allowed), leaves dst's prefix alone,
// and bad queries append nothing.
func TestAppendNearContract(t *testing.T) {
	for _, tc := range contractCases() {
		t.Run(tc.name+"/grid", func(t *testing.T) {
			g, err := NewGrid(tc.pts, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			dim := tc.pts[0].Dim()
			prefix := []int32{-7, 42, -7}
			for qi, c := range tc.queries {
				// Query twice: the grid answers the second from its
				// window cache.
				for pass := 0; pass < 2; pass++ {
					dst := append(make([]int32, 0, len(prefix)+1), prefix...)
					got := g.AppendNear(dst, c)
					if !reflect.DeepEqual(got[:len(prefix)], prefix) {
						t.Fatalf("query %d: dst prefix changed to %v", qi, got[:len(prefix)])
					}
					run := got[len(prefix):]
					for i := range run {
						if run[i] < 0 || int(run[i]) >= len(tc.pts) {
							t.Fatalf("query %d: index %d out of range [0,%d)", qi, run[i], len(tc.pts))
						}
						if i > 0 && run[i] <= run[i-1] {
							t.Fatalf("query %d: not strictly ascending: %v", qi, run)
						}
					}
					in := map[int32]bool{}
					for _, i := range run {
						in[i] = true
					}
					for _, i := range chebWithin(tc.pts, c, tc.r) {
						if !in[i] {
							t.Fatalf("query %d (%v): point %d within r missing", qi, c, i)
						}
					}
				}
			}
			bad := []vec.V{vec.New(dim + 1)}
			for d := 0; d < dim; d++ {
				for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					c := tc.pts[0].Clone()
					c[d] = x
					bad = append(bad, c)
				}
			}
			for _, c := range bad {
				dst := []int32{3, 1}
				if got := g.AppendNear(dst, c); len(got) != 2 || got[0] != 3 || got[1] != 1 {
					t.Errorf("bad query %v appended: %v", c, got)
				}
			}
			checkWindowCache(t, g, tc)
		})
	}
}

// checkWindowCache asserts the window cache's invariants after a case's
// queries: the cap holds, the tally matches the stored windows, and every
// stored window equals a fresh build. For a capHit case, some queried cell
// must have been left uncached.
func checkWindowCache(t *testing.T, g *Grid, tc contractCase) {
	t.Helper()
	if g.winLen > windowCapPerPoint*g.n {
		t.Fatalf("window cache holds %d indices, cap %d", g.winLen, windowCapPerPoint*g.n)
	}
	total := 0
	for id, w := range g.windows {
		total += len(w)
		if want := g.appendWindow(nil, g.cellCoords(id)); !reflect.DeepEqual(w, want) {
			t.Fatalf("cached window %d = %v, fresh build %v", id, w, want)
		}
	}
	if total != g.winLen {
		t.Fatalf("window tally %d, stored %d", g.winLen, total)
	}
	if !tc.capHit {
		return
	}
	// Every point's own cell has a nonempty window, so without the cap
	// each occupied cell would be cached.
	if cells := len(g.Cells()); len(g.windows) >= cells {
		t.Fatalf("cap never reached: %d of %d point cells cached (%d indices)", len(g.windows), cells, g.winLen)
	}
}

// TestAppendNearConcurrentColdGrid: eight goroutines query one cold grid,
// filling its window cache concurrently; every answer must equal a serial
// reference. Run it under -race.
func TestAppendNearConcurrentColdGrid(t *testing.T) {
	rng := xrand.New(31)
	pts := randPoints(rng, 2000, 2, 0, 10)
	queries := append(append([]vec.V{}, pts[:400]...), randPoints(rng, 100, 2, -1, 11)...)
	ref, err := NewGrid(pts, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int32, len(queries))
	for i, c := range queries {
		want[i] = ref.AppendNear(nil, c)
	}
	g, err := NewGrid(pts, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []int32
			for k := range queries {
				i := (k + w*len(queries)/workers) % len(queries)
				dst = g.AppendNear(dst[:0], queries[i])
				if !reflect.DeepEqual(append([]int32{}, dst...), append([]int32{}, want[i]...)) {
					errs <- "concurrent answer differs from the serial reference"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestEachCellNear: the occupied-cell walk visits exactly the occupied cells
// within the ring distance, each once, in lexicographic order, whether it
// probes every window offset or scans the occupied cells instead.
func TestEachCellNear(t *testing.T) {
	rng := xrand.New(37)
	for _, tc := range []struct {
		dim, n, rings int
		hi            float64
	}{
		{1, 30, 1, 10}, {2, 200, 1, 8}, {2, 200, 3, 8}, {3, 100, 1, 4},
		{12, 12, 1, 3.5}, // 3^12 offsets, 12 occupied cells: the scan path
	} {
		g, err := NewGrid(randPoints(rng, tc.n, tc.dim, 0, tc.hi), 1)
		if err != nil {
			t.Fatal(err)
		}
		cells := g.Cells()
		for q := 0; q < 20; q++ {
			center := make([]int, tc.dim)
			for d := range center {
				center[d] = rng.IntRange(-2, g.extents[d]+1)
			}
			var want [][]int
			for _, c := range cells {
				if within(c.Coord, center, tc.rings) {
					want = append(want, c.Coord)
				}
			}
			var got [][]int
			g.EachCellNear(center, tc.rings, func(c Cell) {
				if len(c.Points) == 0 {
					t.Fatalf("dim %d: empty cell %v visited", tc.dim, c.Coord)
				}
				if b, _ := g.bucket(nil, c.Coord); !reflect.DeepEqual(c.Points, b) {
					t.Fatalf("dim %d: cell %v carries the wrong points", tc.dim, c.Coord)
				}
				got = append(got, append([]int{}, c.Coord...))
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dim %d rings %d around %v: walked %v, want %v", tc.dim, tc.rings, center, got, want)
			}
		}
	}
}

// TestFillWindowsMatchesLazy: after FillWindows, every occupied cell's
// window equals, index for index, the window a fresh grid builds on the
// cell's first query, and the cache tally holds exactly the stored windows.
// Hashed-key grids, which a clamped dimension forces, store nothing in bulk
// and answer as before.
func TestFillWindowsMatchesLazy(t *testing.T) {
	rng := xrand.New(41)
	cases := []struct {
		name string
		pts  []vec.V
		r    float64
		bulk bool
	}{
		{"1d", randPoints(rng, 200, 1, 0, 10), 0.3, true},
		{"2d", randPoints(rng, 500, 2, 0, 6), 0.5, true},
		{"3d", randPoints(rng, 300, 3, 0, 5), 0.5, true},
		{"5d", randPoints(rng, 300, 5, 0, 3), 0.5, true},
		{"clamped", []vec.V{vec.Of(0), vec.Of(1e-4), vec.Of(1e300), vec.Of(0.5)}, 1e-3, false},
		{"hashed", []vec.V{vec.Of(0, 0), vec.Of(3e-7, 4e-7), vec.Of(1e12, 1e12), vec.Of(1e12+5e-7, 1e12)}, 1e-6, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGrid(tc.pts, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewGrid(tc.pts, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := g.Windows(); ok {
				t.Fatal("views before FillWindows")
			}
			g.FillWindows()
			views, ok := g.Windows()
			if ok != tc.bulk {
				t.Fatalf("views stored: %v, want %v", ok, tc.bulk)
			}
			for i, p := range tc.pts {
				if !ok {
					break
				}
				if got, want := views.Of(i), fresh.AppendNear(nil, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("point %d: view %v, lazy window %v", i, got, want)
				}
			}
			if !tc.bulk {
				if len(g.windows) != 0 || g.winLen != 0 {
					t.Fatalf("hashed grid stored %d windows in bulk", len(g.windows))
				}
			} else {
				cells := g.Cells()
				if len(g.windows) != len(cells) {
					t.Fatalf("%d windows stored for %d occupied cells", len(g.windows), len(cells))
				}
				total := 0
				for _, c := range cells {
					w, ok := g.windows[g.cellID(c.Coord)]
					if !ok {
						t.Fatalf("cell %v has no window", c.Coord)
					}
					total += len(w)
					if want := fresh.AppendNear(nil, tc.pts[c.Points[0]]); !reflect.DeepEqual(w, want) {
						t.Fatalf("cell %v: bulk window %v, lazy %v", c.Coord, w, want)
					}
				}
				if total != g.winLen {
					t.Fatalf("window tally %d, stored %d", g.winLen, total)
				}
			}
			for i, p := range tc.pts {
				if got, want := g.AppendNear(nil, p), fresh.AppendNear(nil, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("point %d: %v after FillWindows, %v lazily", i, got, want)
				}
			}
			g.FillWindows() // a second call changes nothing
			checkWindowCache(t, g, contractCase{})
		})
	}
}

// TestFillWindowsOverCap: a dense 3-D set puts each point in up to 27
// windows, past the 9·n cap, so FillWindows stores nothing and every query
// still answers correctly from lazy windows.
func TestFillWindowsOverCap(t *testing.T) {
	pts := randPoints(xrand.New(43), 400, 3, 0, 1.4)
	g, err := NewGrid(pts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g.FillWindows()
	if _, ok := g.Windows(); len(g.windows) != 0 || g.winLen != 0 || ok {
		t.Fatalf("over-cap fill stored %d windows (%d indices), views %v", len(g.windows), g.winLen, ok)
	}
	for qi, c := range pts {
		got := g.AppendNear(nil, c)
		in := map[int32]bool{}
		for i, x := range got {
			if i > 0 && x <= got[i-1] {
				t.Fatalf("query %d: not strictly ascending: %v", qi, got)
			}
			in[x] = true
		}
		for _, i := range chebWithin(pts, c, 0.5) {
			if !in[i] {
				t.Fatalf("query %d: point %d within r missing", qi, i)
			}
		}
	}
	checkWindowCache(t, g, contractCase{})
}

// TestFillWindowsConcurrentQueries: eight goroutines query a cold grid while
// another fills its windows in bulk; every answer must equal a serial
// reference, and the cache must end consistent. Run it under -race.
func TestFillWindowsConcurrentQueries(t *testing.T) {
	rng := xrand.New(47)
	pts := randPoints(rng, 2000, 2, 0, 10)
	queries := append(append([]vec.V{}, pts[:400]...), randPoints(rng, 100, 2, -1, 11)...)
	ref, err := NewGrid(pts, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int32, len(queries))
	for i, c := range queries {
		want[i] = ref.AppendNear(nil, c)
	}
	g, err := NewGrid(pts, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers+1)
	wg.Add(2)
	go func() {
		defer wg.Done()
		g.FillWindows()
	}()
	go func() { // views, once stored, read as the finished fill's windows
		defer wg.Done()
		for k := 0; k < 400; k++ {
			if views, ok := g.Windows(); ok && !reflect.DeepEqual(views.Of(k), want[k]) {
				errs <- "a view differs from the serial reference"
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []int32
			for k := range queries {
				i := (k + w*len(queries)/workers) % len(queries)
				dst = g.AppendNear(dst[:0], queries[i])
				if !reflect.DeepEqual(append([]int32{}, dst...), append([]int32{}, want[i]...)) {
					errs <- "concurrent answer differs from the serial reference"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	checkWindowCache(t, g, contractCase{})
}
