// Package spatial provides the neighbor index over a point set. Coverage
// queries in the reward model only involve points within distance r of a
// center; bucketing points into cells of side r lets the evaluator visit the
// O(3^m) neighboring cells instead of all n points, which is the difference
// between O(n) and O(points-in-range) per gain evaluation at large n.
//
// Grid answers the one query contract reward.NeighborFinder names:
// AppendNear(dst, c) appends the indices of all points within Chebyshev
// (∞-norm) distance r of c to dst, strictly ascending and without
// duplicates, possibly with extras. The query is conservative for every
// p-norm with p ≥ 1, because ‖x‖_∞ ≤ ‖x‖_p: any point within p-norm distance
// r is always returned, and the extras carry zero coverage, which the
// evaluator filters naturally. The ascending order is what lets an
// accelerated sum add the same nonzero terms in the same order as a full
// scan, so it is bit-identical to it.
//
// Grid is the only index. No second index is kept for non-uniform
// densities: the grid was measured faster than a k-d tree on every shape
// tried, tightly clustered data included (DESIGN.md §7). Every instance a
// solve runs on gets one exactly where Prunes says it pays for itself
// (reward.NewIndexed), except the churn loop's with its default index
// "none"; the shard partition and nearlinear read the instance's grid
// (reward.Instance.Grid).
//
// A Grid indexes a fixed point set and is safe for concurrent queries. It
// caches each query cell's ascending window (bounded at 9·n cached
// indices), so repeated queries from one cell copy a slice: a caller about
// to query every point's window fills them all in one pass (FillWindows)
// and reads them in place (Windows), and otherwise each is built on its
// cell's first query. A grid never
// changes after construction: a population that changes (the churn loop's,
// once per period) gets a new grid over its new point set.
package spatial

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
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

// Grid is a uniform-cell index over a fixed point set. Its constructor
// counting-sorts the point indices by cell into one flat array, so every
// bucket is a run of it; the buckets never change afterwards. The lazily
// built cell list and window cache are guarded, so it is concurrency-safe.
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
	// Each bucket is a run of one flat index array, ascending.
	buckets  map[int][]int    // flattened cell id -> point indices
	hbuckets map[string][]int // appendCellKey of the cell coords -> point indices

	// Int-keyed grids only: the occupied cell ids in ascending order, which
	// is lexicographic coordinate order (cellID puts dimension 0 first).
	ids []int
	// Each point's position in Cells(), filled by NewGridCoords, or on
	// hashed grids by buildCells once it sorts the keys.
	cellOf []int32

	cellsOnce sync.Once
	cells     []Cell // occupied cells in lexicographic order, built on first use

	winMu   sync.Mutex
	windows map[int][]int32 // in-grid cell id -> its ascending 3^dim window
	winLen  int             // indices held in windows, at most windowCapPerPoint·n
	filled  bool            // FillWindows has run (or is running)
	views   Windows         // FillWindows' stored windows by cell position
}

// NewGrid is NewGridCoords over points given one vector each, copied into
// a row-major array. Points of unequal dimensions are reported as a bad
// dim, after the other faults.
func NewGrid(points []vec.V, radius float64) (*Grid, error) {
	dim := 0
	if len(points) > 0 {
		dim = points[0].Dim()
	}
	flat := make([]float64, 0, len(points)*dim)
	for _, p := range points {
		if p.Dim() != dim {
			dim = 0
			break
		}
		flat = append(flat, p...)
	}
	return NewGridCoords(flat, dim, radius)
}

// NewGridCoords indexes the rows of coords, a row-major array of dim-wide
// points (pointset.Set.Coords), with cells of side equal to radius; point i
// is row i. It returns an error for no points, more than MaxInt32 points, a
// non-positive radius, or a dim below 1 or not dividing len(coords), in
// that order. The grid reads coords only while it is built.
func NewGridCoords(coords []float64, dim int, radius float64) (*Grid, error) {
	n := len(coords) / max(dim, 1)
	switch {
	case len(coords) == 0:
		return nil, errors.New("spatial: empty point set")
	case n > math.MaxInt32:
		return nil, fmt.Errorf("spatial: %d points exceed the grid's int32 indices", n)
	case radius <= 0 || math.IsNaN(radius) || math.IsInf(radius, 0):
		return nil, fmt.Errorf("spatial: invalid radius %v", radius)
	case dim < 1 || n*dim != len(coords):
		return nil, vec.ErrDimMismatch
	}
	lo, hi, _ := vec.FlatBounds(coords, dim) // cannot fail: checked above
	g := &Grid{cell: radius, dim: dim, origin: lo, n: n}
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

	// Each point's sort key: its flat cell id, or, hashed, the first-seen
	// rank of its cell key among the distinct keys.
	key := make([]int, n)
	c := make([]int, dim)
	var kb []byte
	var keys []string
	var rank map[string]int
	if hashed {
		rank = make(map[string]int)
	}
	for i := range key {
		p := coords[i*dim : (i+1)*dim]
		for d := range c {
			// The clamp happens on the float value, before the int
			// conversion, so even extreme coordinates (possible when a
			// dimension is clamped) convert in range. float64(extents-1)
			// can round up to extents at large magnitudes, so the exact
			// bound is re-applied in int space.
			f := math.Floor((p[d] - g.origin[d]) / g.cell)
			if !(f > 0) { // also catches NaN from a malformed point
				f = 0
			}
			if max := float64(g.extents[d]); f > max {
				f = max
			}
			v := int(f)
			if v >= g.extents[d] {
				v = g.extents[d] - 1
			}
			c[d] = v
		}
		if !hashed {
			key[i] = g.cellID(c)
			continue
		}
		kb = appendCellKey(kb[:0], c)
		r, ok := rank[string(kb)]
		if !ok {
			r = len(keys)
			keys = append(keys, string(kb))
			rank[keys[r]] = r
		}
		key[i] = r
	}
	if hashed {
		idSpace = len(keys)
	}
	idx := groupByKey(key, idSpace)

	// One run of idx per occupied cell, in key order.
	m := 0
	for p, i := range idx {
		if p == 0 || key[i] != key[idx[p-1]] {
			m++
		}
	}
	if hashed {
		g.hbuckets = make(map[string][]int, m)
	} else {
		g.buckets = make(map[int][]int, m)
		g.ids = make([]int, 0, m)
		g.cellOf = make([]int32, n)
	}
	for start, p := 0, 1; p <= len(idx); p++ {
		k := key[idx[start]]
		if p < len(idx) && key[idx[p]] == k {
			continue
		}
		run := idx[start:p:p]
		if hashed {
			g.hbuckets[keys[k]] = run
		} else {
			for _, i := range run {
				g.cellOf[i] = int32(len(g.ids))
			}
			g.ids = append(g.ids, k)
			g.buckets[k] = run
		}
		start = p
	}
	return g, nil
}

// groupByKey returns the indices 0..len(key)-1 ordered stably by key, each
// key in [0, space), leaving key unchanged. It is an LSD radix sort whose
// digit's count table has at most 2·len(key) entries, so a key space that
// small, as in any grid with no more cells than points, takes one counting
// pass. Stability keeps each key's indices ascending, and no comparison
// sort runs at any key space.
func groupByKey(key []int, space int) []int {
	n := len(key)
	idx := make([]int, n)
	width := bits.Len(uint(space - 1))
	if width == 0 { // a single key: already grouped
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	passes := (width + bits.Len(uint(n)) - 1) / bits.Len(uint(n))
	digit := (width + passes - 1) / passes
	count := make([]int, 1<<digit)
	mask := len(count) - 1
	keys := key // the keys in this pass's order
	var idxOut []int
	for shift := 0; shift < width; shift += digit {
		clear(count)
		for _, k := range keys {
			count[k>>shift&mask]++
		}
		sum := 0
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		// The first pass reads the identity order; the last writes no keys.
		first, last := shift == 0, shift+digit >= width
		var next []int
		if !last {
			next = make([]int, n)
		}
		if !first && idxOut == nil {
			idxOut = make([]int, n)
		}
		for j, k := range keys {
			d := k >> shift & mask
			p := count[d]
			count[d]++
			if !last {
				next[p] = k
			}
			if first {
				idx[p] = j
			} else {
				idxOut[p] = idx[j]
			}
		}
		if !first {
			idx, idxOut = idxOut, idx
		}
		keys = next
	}
	return idx
}

// N reports the number of indexed points.
func (g *Grid) N() int { return g.n }

// minPruned is how many points a query window must leave out, on average,
// for a grid to pay for its build and its per-query window lookups against a
// scan of every point. Measured with greedy2 and greedy2-lazy on uniform
// 2-D instances, the two break even where windows leave out about 80 points
// (n = 200 at r = 1.5 in the 4×4 box), and at n ≤ 80 the scan is as fast or
// faster at every radius tried (DESIGN.md §7).
const minPruned = 100

// Prunes reports whether a radius-r grid over the rows of coords (as
// NewGridCoords takes them) is worth installing as an instance's neighbour
// finder: whether a query window, 3 cells wide in every dimension, is
// expected to leave out at least minPruned points. The
// expectation takes the points as spread evenly over their bounding box,
// where a window covers (3c−2)/c² of a dimension of c cells. So a dimension
// of at most 2 cells is covered whole, and a radius over half the spread
// along every dimension prunes nothing.
func Prunes(coords []float64, dim int, radius float64) bool {
	lo, hi, err := vec.FlatBounds(coords, dim)
	if err != nil {
		return false
	}
	share := 1.0
	for d := range lo {
		c := math.Floor((hi[d]-lo[d])/radius) + 1
		share *= (3*c - 2) / (c * c)
	}
	return float64(len(coords)/dim)*(1-share) >= minPruned
}

// cellID flattens cell coordinates to a single bucket key (int-keyed grids
// only; NewGridCoords guarantees the product of extents fits).
func (g *Grid) cellID(c []int) int {
	id := 0
	for d := 0; d < g.dim; d++ {
		id = id*g.extents[d] + c[d]
	}
	return id
}

// appendCellKey renders cell coordinates as the string key of the
// hashed-bucket fallback: each coordinate as 8 big-endian bytes. Coordinates
// are never negative, so byte order is lexicographic coordinate order, and
// Cells reads the coordinates back from the key (keyCoords).
func appendCellKey(b []byte, c []int) []byte {
	for _, v := range c {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// keyCoords writes the coordinates appendCellKey stored in k into c.
func keyCoords(c []int, k string) {
	for d := range c {
		v := 0
		for _, b := range []byte(k[8*d : 8*d+8]) {
			v = v<<8 | int(b)
		}
		c[d] = v
	}
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

// CellOf returns each point's position in Cells(): point i lies in
// Cells()[CellOf()[i]]. It is shared and must be treated as read-only.
func (g *Grid) CellOf() []int32 {
	g.cellsOnce.Do(g.buildCells)
	return g.cellOf
}

// buildCells lists the occupied cells: an int-keyed grid's in its ascending
// id order, a hashed grid's in key order, both lexicographic. It fills a
// hashed grid's cellOf, which only this order defines.
func (g *Grid) buildCells() {
	var keys []string
	m := len(g.ids)
	if g.hbuckets != nil {
		keys = make([]string, 0, len(g.hbuckets))
		for k := range g.hbuckets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		m = len(keys)
		g.cellOf = make([]int32, g.n)
	}
	coords := make([]int, m*g.dim)
	g.cells = make([]Cell, m)
	for j := range g.cells {
		c := coords[j*g.dim : (j+1)*g.dim : (j+1)*g.dim]
		if keys != nil {
			keyCoords(c, keys[j])
			g.cells[j] = Cell{Coord: c, Points: g.hbuckets[keys[j]]}
			for _, i := range g.cells[j].Points {
				g.cellOf[i] = int32(j)
			}
		} else {
			g.putCoords(c, g.ids[j])
			g.cells[j] = Cell{Coord: c, Points: g.buckets[g.ids[j]]}
		}
	}
}

// cellCoords inverts cellID: the flattened bucket key back to per-dimension
// cell coordinates (int-keyed grids only).
func (g *Grid) cellCoords(id int) []int {
	c := make([]int, g.dim)
	g.putCoords(c, id)
	return c
}

// putCoords is cellCoords writing into c.
func (g *Grid) putCoords(c []int, id int) {
	for d := g.dim - 1; d >= 0; d-- {
		c[d] = id % g.extents[d]
		id /= g.extents[d]
	}
}

// EachCellNear calls fn for every occupied cell within Chebyshev ring
// distance rings of the cell at coord, coord's own cell included, in
// lexicographic coordinate order. coord may lie outside the grid. A walk
// probes min((2·rings+1)^dim, occupied cells) cells: when the window,
// clipped to the grid, holds more cells than are occupied, it scans the
// sorted occupied cells instead of every offset. fn must not retain c.Coord.
func (g *Grid) EachCellNear(coord []int, rings int, fn func(c Cell)) {
	g.eachCellNear(coord, rings, make([]int, 3*g.dim), fn)
}

// eachCellNear is EachCellNear walking in buf, which holds at least 3·dim
// ints.
func (g *Grid) eachCellNear(coord []int, rings int, buf []int, fn func(c Cell)) {
	if len(coord) != g.dim || rings < 0 {
		return
	}
	occ := len(g.buckets) + len(g.hbuckets) // occupied cells; one map is nil
	lo, hi, cur := buf[:g.dim], buf[g.dim:2*g.dim], buf[2*g.dim:3*g.dim]
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
	copy(cur, lo)
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
// by FillWindows or, failing that, on the cell's first query by gathering
// and sorting its neighboring buckets; hashed-key grids, queries one cell
// outside the grid, and windows past the cache cap are built into dst per
// query.
//
// Queries far outside the indexed bounding box, queries with NaN or ±Inf
// coordinates, and wrong-dimension queries append nothing: the window test
// runs on the raw float cell coordinate, clamped into int range before any
// float→int conversion (which is implementation-defined for out-of-range
// values, Go spec §Conversions).
func (g *Grid) AppendNear(dst []int32, c vec.V) []int32 {
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
func (g *Grid) appendWindow(dst []int32, coord []int) []int32 {
	start := len(dst)
	g.EachCellNear(coord, 1, func(c Cell) {
		for _, i := range c.Points {
			dst = append(dst, int32(i))
		}
	})
	slices.Sort(dst[start:])
	return dst
}

// storeWindow caches a copy of cell id's window unless another query
// stored it first, it is empty, or it would push the cache past
// windowCapPerPoint·n indices.
func (g *Grid) storeWindow(id int, w []int32) {
	if len(w) == 0 {
		return
	}
	g.winMu.Lock()
	defer g.winMu.Unlock()
	if _, dup := g.windows[id]; dup || g.winLen+len(w) > windowCapPerPoint*g.n {
		return
	}
	if g.windows == nil {
		g.windows = make(map[int][]int32)
	}
	g.windows[id] = append([]int32(nil), w...)
	g.winLen += len(w)
}

// FillWindows builds the window of every occupied cell of an int-keyed grid
// at once, for a caller about to query every point's window, as the
// first-round gain sweep does. One ascending pass over the points appends
// each point to the windows of the ≤ 3^dim occupied cells around its own,
// so every window comes out sorted without a sort. It does nothing on
// hashed-key grids, after its first call, or when the exact total of the
// windows, counted before anything is stored, would push the cache past
// windowCapPerPoint·n indices; windows then stay lazy. Its temporaries are
// O(occupied cells), in a constant number of slices. Callers that query
// only a few cells should not call it: the windows of every cell cost about
// 3^dim·4 bytes per point. It is safe to call concurrently with queries.
func (g *Grid) FillWindows() {
	if g.buckets == nil {
		return
	}
	g.winMu.Lock()
	done := g.filled
	g.filled = true
	g.winMu.Unlock()
	if done {
		return
	}
	// Cell j's occupied neighbours, itself included, are
	// adj[adjOff[j]:adjOff[j+1]], and its window is win[off[j]:off[j+1]].
	m, limit := len(g.ids), windowCapPerPoint*g.n
	adjOff := make([]int, m+1)
	off := make([]int, m+1)
	nb := 1 // neighbours per cell, at most min(3^dim, m)
	for d := 0; d < g.dim && nb < m; d++ {
		nb *= 3
	}
	adj := make([]int32, 0, min(min(nb, m)*m, limit))
	buf := make([]int, 4*g.dim)
	for j, id := range g.ids {
		coord := buf[3*g.dim:]
		g.putCoords(coord, id)
		total := off[j]
		g.eachCellNear(coord, 1, buf, func(c Cell) {
			adj = append(adj, g.cellOf[c.Points[0]])
			total += len(c.Points)
		})
		if total > limit {
			return
		}
		adjOff[j+1], off[j+1] = len(adj), total
	}
	// A point lies in the windows of exactly the cells around its own, as
	// Chebyshev adjacency is symmetric; ascending i keeps each ascending.
	win := make([]int32, off[m])
	fill := append([]int(nil), off[:m]...) // each window's next free slot
	for i, j := range g.cellOf {
		for _, c := range adj[adjOff[j]:adjOff[j+1]] {
			win[fill[c]] = int32(i)
			fill[c]++
		}
	}

	g.winMu.Lock()
	defer g.winMu.Unlock()
	held := g.winLen + len(win) // lazily cached windows of these cells are replaced
	for _, id := range g.ids {
		held -= len(g.windows[id])
	}
	if held > limit {
		return
	}
	if g.windows == nil {
		g.windows = make(map[int][]int32, m)
	}
	for j, id := range g.ids {
		g.windows[id] = win[off[j]:off[j+1]:off[j+1]]
	}
	g.winLen = held
	g.views = Windows{win: win, off: off, cellOf: g.cellOf}
}

// Windows is a read-only view of the windows FillWindows stored: Of(i) is
// the ascending window of point i's cell, the indices AppendNear appends
// for a query from that cell, read in place. The zero value holds none.
type Windows struct {
	win    []int32
	off    []int
	cellOf []int32
}

// Of returns point i's window. It must be treated as read-only.
func (w Windows) Of(i int) []int32 {
	j := w.cellOf[i]
	return w.win[w.off[j]:w.off[j+1]:w.off[j+1]]
}

// Windows returns the view of the windows FillWindows stored, and false
// when it stored none: on hashed-key grids, past the cache cap, and before
// a fill that is still running has finished.
func (g *Grid) Windows() (Windows, bool) {
	g.winMu.Lock()
	defer g.winMu.Unlock()
	return g.views, g.views.win != nil
}
