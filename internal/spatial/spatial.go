// Package spatial provides neighbor indexes over a point set. Coverage
// queries in the reward model only involve points within distance r of a
// center; bucketing points into cells of side r lets the evaluator visit the
// O(3^m) neighboring cells instead of all n points, which is the difference
// between O(n) and O(points-in-range) per gain evaluation at large n.
//
// Every index answers the one query contract reward.NeighborFinder names:
// AppendNear(dst, c) appends the indices of all points within Chebyshev
// (∞-norm) distance r of c to dst, strictly ascending and without
// duplicates, possibly with extras. The query is conservative for every
// p-norm with p ≥ 1, because ‖x‖_∞ ≤ ‖x‖_p: any point within p-norm distance
// r is always returned, and the extras carry zero coverage, which the
// evaluator filters naturally. The ascending order is what lets an
// accelerated sum add the same nonzero terms in the same order as a full
// scan, so it is bit-identical to it.
//
// Grid and KDTree index a fixed point set and are safe for concurrent
// queries. A Grid caches each query cell's ascending window on first use
// (bounded at 9·n cached indices), so repeated queries from one cell copy
// a slice instead of gathering and sorting buckets. Dynamic adds population
// churn on top and is not safe for concurrent use with its mutations.
package spatial

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/vec"
)

// maxExtent caps the per-dimension cell count. Go's float→int conversion is
// implementation-defined for out-of-range values (spec §Conversions), so
// every cell-coordinate computation clamps in float space first; the cap
// (a power of two, hence exact as a float64) keeps clamped coordinates
// safely inside int64 range. A dimension whose true cell count exceeds the
// cap is marked clamped: far cells collapse onto the boundary cell, which
// stays conservative (extras only) as long as AppendNear treats
// beyond-the-cap queries as hitting that boundary cell.
const maxExtent = 1 << 62

// windowCapPerPoint bounds a Grid's window cache at this many cached indices
// per indexed point. A point lies in the windows of at most 3^dim cells, so
// 9 holds every window of a 2-D grid; past the cap, windows are rebuilt per
// query instead of stored.
const windowCapPerPoint = 9

// Grid is a uniform-cell index over a fixed point set. The buckets never
// change after NewGrid; the lazily built cell list and window cache are
// guarded, so a Grid is safe for concurrent queries.
type Grid struct {
	cell    float64
	dim     int
	origin  vec.V
	extents []int  // cells per dimension (capped at maxExtent)
	clamped []bool // true: this dimension's true cell count exceeded maxExtent
	n       int

	// Exactly one bucket map is used. Flattened int ids require
	// Π extents[d] to fit in an int; when it cannot, ids would alias
	// silently and bloat buckets, so the grid falls back to string keys.
	buckets  map[int][]int    // flattened cell id -> point indices
	hbuckets map[string][]int // joined cell coords -> point indices

	cellsOnce sync.Once
	cells     []Cell // occupied cells in lexicographic order, built on first use

	winMu   sync.Mutex
	windows map[int][]int // in-grid cell id -> its ascending 3^dim window
	winLen  int           // indices held in windows, at most windowCapPerPoint·n
}

// NewGrid indexes the points with cells of side equal to radius. It returns
// an error for an empty set, inconsistent dimensions, or a non-positive
// radius.
func NewGrid(points []vec.V, radius float64) (*Grid, error) {
	if len(points) == 0 {
		return nil, errors.New("spatial: empty point set")
	}
	if radius <= 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return nil, fmt.Errorf("spatial: invalid radius %v", radius)
	}
	dim := points[0].Dim()
	lo, hi, err := vec.Bounds(points)
	if err != nil {
		return nil, err
	}
	g := &Grid{cell: radius, dim: dim, origin: lo, n: len(points)}
	g.extents = make([]int, dim)
	g.clamped = make([]bool, dim)
	hashed := false
	idSpace := 1
	for d := 0; d < dim; d++ {
		ext := math.Floor((hi[d]-lo[d])/radius) + 1
		if !(ext >= 1) { // degenerate span; NaN cannot occur (finite bounds)
			ext = 1
		}
		if ext > maxExtent {
			// A bounding box this huge relative to r cannot enumerate
			// its cells in an int; collapse the far cells onto the
			// boundary cell and switch to hashed bucket keys.
			ext = maxExtent
			g.clamped[d] = true
			hashed = true
		}
		g.extents[d] = int(ext)
		if !hashed {
			if idSpace > math.MaxInt/g.extents[d] {
				// Π extents[d] overflows: flattened ids would alias.
				hashed = true
			} else {
				idSpace *= g.extents[d]
			}
		}
	}
	if hashed {
		g.hbuckets = make(map[string][]int)
	} else {
		g.buckets = make(map[int][]int)
	}
	var key []byte
	for i, p := range points {
		if p.Dim() != dim {
			return nil, vec.ErrDimMismatch
		}
		c := g.coords(p)
		if hashed {
			key = appendCellKey(key[:0], c)
			g.hbuckets[string(key)] = append(g.hbuckets[string(key)], i)
		} else {
			id := g.cellID(c)
			g.buckets[id] = append(g.buckets[id], i)
		}
	}
	return g, nil
}

// N reports the number of indexed points.
func (g *Grid) N() int { return g.n }

// coords maps a point to integer cell coordinates (clamped to the grid).
// The clamp happens on the float value, before the int conversion, so even
// extreme coordinates (possible when a dimension is clamped) convert
// in-range.
func (g *Grid) coords(p vec.V) []int {
	c := make([]int, g.dim)
	for d := 0; d < g.dim; d++ {
		f := math.Floor((p[d] - g.origin[d]) / g.cell)
		if !(f > 0) { // also catches NaN from a malformed point
			f = 0
		}
		// Two-stage clamp: the float-space clamp makes the int conversion
		// defined, but float64(extents-1) can round up to extents at large
		// magnitudes, so the exact bound is re-applied in int space.
		if max := float64(g.extents[d]); f > max {
			f = max
		}
		v := int(f)
		if v >= g.extents[d] {
			v = g.extents[d] - 1
		}
		c[d] = v
	}
	return c
}

// cellID flattens cell coordinates to a single bucket key (int-keyed grids
// only; NewGrid guarantees the product of extents fits).
func (g *Grid) cellID(c []int) int {
	id := 0
	for d := 0; d < g.dim; d++ {
		id = id*g.extents[d] + c[d]
	}
	return id
}

// appendCellKey renders cell coordinates as a compact string key for the
// hashed-bucket fallback.
func appendCellKey(b []byte, c []int) []byte {
	for d, v := range c {
		if d > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// bucket returns the point indices stored for the given cell coordinates.
func (g *Grid) bucket(key []byte, c []int) ([]int, []byte) {
	if g.hbuckets != nil {
		key = appendCellKey(key[:0], c)
		return g.hbuckets[string(key)], key
	}
	return g.buckets[g.cellID(c)], key
}

// Cell is one occupied cell of the grid: its integer cell coordinates
// (relative to the grid origin, cell side = the indexing radius) and the
// indices of the points bucketed there.
type Cell struct {
	Coord  []int
	Points []int
}

// Cells returns every occupied cell sorted lexicographically by coordinates,
// so the enumeration order is a deterministic row-major spatial sweep
// regardless of map iteration order. The list is built once and shared:
// it, its Coord slices and its Points slices (which alias the grid's
// buckets) must be treated as read-only. The spatial partitioner consumes
// this to split a point set into contiguous balanced shards.
func (g *Grid) Cells() []Cell {
	g.cellsOnce.Do(g.buildCells)
	return g.cells
}

func (g *Grid) buildCells() {
	var out []Cell
	if g.hbuckets != nil {
		for k, pts := range g.hbuckets {
			out = append(out, Cell{Coord: parseCellKey(k, g.dim), Points: pts})
		}
	} else {
		for id, pts := range g.buckets {
			out = append(out, Cell{Coord: g.cellCoords(id), Points: pts})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		ca, cb := out[a].Coord, out[b].Coord
		for d := range ca {
			if ca[d] != cb[d] {
				return ca[d] < cb[d]
			}
		}
		return false
	})
	g.cells = out
}

// cellCoords inverts cellID: the flattened bucket key back to per-dimension
// cell coordinates (int-keyed grids only).
func (g *Grid) cellCoords(id int) []int {
	c := make([]int, g.dim)
	for d := g.dim - 1; d >= 0; d-- {
		c[d] = id % g.extents[d]
		id /= g.extents[d]
	}
	return c
}

// parseCellKey inverts appendCellKey for the hashed-bucket fallback.
func parseCellKey(k string, dim int) []int {
	c := make([]int, 0, dim)
	for _, part := range strings.Split(k, ",") {
		v, _ := strconv.ParseInt(part, 10, 64)
		c = append(c, int(v))
	}
	return c
}

// EachCellNear calls fn for every occupied cell within Chebyshev ring
// distance rings of the cell at coord, coord's own cell included, in
// lexicographic coordinate order. coord may lie outside the grid. A walk
// probes min((2·rings+1)^dim, occupied cells) cells: when the window,
// clipped to the grid, holds more cells than are occupied, it scans the
// sorted occupied cells instead of every offset. fn must not retain c.Coord.
func (g *Grid) EachCellNear(coord []int, rings int, fn func(c Cell)) {
	if len(coord) != g.dim || rings < 0 {
		return
	}
	occ := len(g.buckets) + len(g.hbuckets) // occupied cells; one map is nil
	lo := make([]int, g.dim)
	hi := make([]int, g.dim)
	window := 1 // clipped window size, saturating at occ+1
	for d, x := range coord {
		l, h := x-rings, x+rings
		if l < 0 {
			l = 0
		}
		if h >= g.extents[d] {
			h = g.extents[d] - 1
		}
		if l > h { // the window misses the grid on this axis
			return
		}
		lo[d], hi[d] = l, h
		if span := h - l + 1; window > occ/span {
			window = occ + 1
		} else {
			window *= span
		}
	}
	if window > occ {
		for _, c := range g.Cells() {
			if within(c.Coord, coord, rings) {
				fn(c)
			}
		}
		return
	}
	cur := append([]int(nil), lo...)
	var key []byte
	for {
		var b []int
		b, key = g.bucket(key, cur)
		if len(b) > 0 {
			fn(Cell{Coord: cur, Points: b})
		}
		// Odometer over [lo, hi], last dimension fastest: lexicographic.
		d := g.dim - 1
		for ; d >= 0; d-- {
			cur[d]++
			if cur[d] <= hi[d] {
				break
			}
			cur[d] = lo[d]
		}
		if d < 0 {
			return
		}
	}
}

// within reports whether cell a lies within Chebyshev ring distance rings
// of cell b.
func within(a, b []int, rings int) bool {
	for d := range a {
		if diff := a[d] - b[d]; diff > rings || diff < -rings {
			return false
		}
	}
	return true
}

// AppendNear appends to dst the indices of every point within Chebyshev
// distance g.cell (= the indexing radius) of c, possibly with extras from
// the bordering cells, in strictly ascending order. A query whose cell lies
// inside an int-keyed grid is served from that cell's cached window, built
// once by gathering and sorting its neighboring buckets; hashed-key grids,
// queries one cell outside the grid, and windows past the cache cap are
// built into dst per query.
//
// Queries far outside the indexed bounding box, queries with NaN or ±Inf
// coordinates, and wrong-dimension queries append nothing: the window test
// runs on the raw float cell coordinate, clamped into int range before any
// float→int conversion (which is implementation-defined for out-of-range
// values, Go spec §Conversions).
func (g *Grid) AppendNear(dst []int, c vec.V) []int {
	if c.Dim() != g.dim {
		return dst
	}
	id, inGrid := 0, g.buckets != nil
	for d, x := range c {
		raw, ok := g.queryCoord(x, d)
		if !ok {
			return dst
		}
		if raw < 0 || raw >= g.extents[d] {
			inGrid = false
		} else if inGrid {
			id = id*g.extents[d] + raw
		}
	}
	if !inGrid {
		coord := make([]int, g.dim)
		for d, x := range c {
			coord[d], _ = g.queryCoord(x, d)
		}
		return g.appendWindow(dst, coord)
	}
	g.winMu.Lock()
	w, ok := g.windows[id]
	g.winMu.Unlock()
	if ok {
		return append(dst, w...)
	}
	start := len(dst)
	dst = g.appendWindow(dst, g.cellCoords(id))
	g.storeWindow(id, dst[start:])
	return dst
}

// queryCoord maps a query coordinate to its unclamped cell coordinate along
// dimension d, in [-1, extents[d]]. It reports false when no indexed point
// can be within range: a NaN or ±Inf coordinate, or at least one whole
// empty cell between the query and the grid.
func (g *Grid) queryCoord(x float64, d int) (int, bool) {
	f := math.Floor((x - g.origin[d]) / g.cell)
	if math.IsNaN(f) || math.IsInf(x, 0) || f < -1 {
		return 0, false
	}
	if ext := float64(g.extents[d]); f > ext {
		if !g.clamped[d] {
			return 0, false
		}
		// Clamped dimension: cells beyond the cap collapsed onto the
		// boundary cell at indexing time, so a far query must still
		// visit it (conservative; extras are filtered by the evaluator).
		f = ext
	}
	return int(f), true // f ∈ [-1, extents[d]]: exact and in range
}

// appendWindow appends the ascending indices of every point in the cells
// within one ring of coord.
func (g *Grid) appendWindow(dst []int, coord []int) []int {
	start := len(dst)
	g.EachCellNear(coord, 1, func(c Cell) { dst = append(dst, c.Points...) })
	sort.Ints(dst[start:])
	return dst
}

// storeWindow caches a copy of cell id's window unless another query
// stored it first, it is empty, or it would push the cache past
// windowCapPerPoint·n indices.
func (g *Grid) storeWindow(id int, w []int) {
	if len(w) == 0 {
		return
	}
	g.winMu.Lock()
	defer g.winMu.Unlock()
	if _, dup := g.windows[id]; dup || g.winLen+len(w) > windowCapPerPoint*g.n {
		return
	}
	if g.windows == nil {
		g.windows = make(map[int][]int)
	}
	g.windows[id] = append([]int(nil), w...)
	g.winLen += len(w)
}
