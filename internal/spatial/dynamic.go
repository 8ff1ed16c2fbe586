package spatial

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/vec"
)

// Index is the query surface shared by Grid and KDTree: a conservative
// radius-r candidate lookup over a fixed point set, appended in ascending
// index order.
type Index interface {
	AppendNear(dst []int, c vec.V) []int
	N() int
}

// Dynamic maintains an Index under population churn. The inner index (a
// Grid or KDTree, chosen at construction) is rebuilt only occasionally;
// between rebuilds, removals tombstone their inner position and insertions
// go to a small "loose" set scanned linearly per query. AppendNear stays
// conservative throughout: every live point within Chebyshev distance r of
// the query is returned (tombstoned positions are filtered, loose points are
// window-tested directly).
//
// Mutations use the same swap-with-last relabeling as pointset.Set, so a
// Dynamic installed on a reward.Instance stays index-aligned with the Set
// across reward.Evaluator.AddUser/RemoveUser deltas.
//
// Rebuild policy: once tombstones + loose points exceed
// max(dynamicRebuildMin, live/4), the next mutation rebuilds the inner index
// over the live population. A rebuild costs one full index construction and
// is triggered at most once per Ω(live) mutations, so maintenance is
// amortized O(cost(build)/live) per delta — and queries never degrade past a
// bounded loose scan.
type Dynamic struct {
	radius float64
	dim    int
	build  func(points []vec.V, radius float64) (Index, error)

	slots    []dynSlot        // slot i ↔ point index i (aligned with the Set)
	inner    Index            // over the population as of the last rebuild
	idxOfPos []int            // inner position → current index; −1 = tombstone
	loose    map[int]struct{} // indices not represented in inner
	dead     int              // tombstoned inner positions
	rebuilds int
}

// dynSlot records where index i's point lives: its coordinates and its
// position in the inner index (−1 when loose).
type dynSlot struct {
	p   vec.V
	pos int
}

// dynamicRebuildMin is the slack floor: small populations tolerate this many
// pending mutations before a rebuild regardless of the live/4 rule.
const dynamicRebuildMin = 32

// NewDynamicGrid builds a Dynamic backed by the uniform grid. The same
// validation rules as NewGrid apply.
func NewDynamicGrid(points []vec.V, radius float64) (*Dynamic, error) {
	return newDynamic(points, radius, func(pts []vec.V, r float64) (Index, error) {
		return NewGrid(pts, r)
	})
}

// NewDynamicKDTree builds a Dynamic backed by the k-d tree. The same
// validation rules as NewKDTree apply.
func NewDynamicKDTree(points []vec.V, radius float64) (*Dynamic, error) {
	return newDynamic(points, radius, func(pts []vec.V, r float64) (Index, error) {
		return NewKDTree(pts, r)
	})
}

func newDynamic(points []vec.V, radius float64, build func([]vec.V, float64) (Index, error)) (*Dynamic, error) {
	if len(points) == 0 {
		return nil, errors.New("spatial: empty point set")
	}
	dim := points[0].Dim()
	for _, p := range points {
		if p.Dim() != dim {
			return nil, vec.ErrDimMismatch
		}
	}
	d := &Dynamic{radius: radius, dim: dim, build: build, loose: map[int]struct{}{}}
	d.slots = make([]dynSlot, len(points))
	for i, p := range points {
		d.slots[i] = dynSlot{p: p.Clone(), pos: -1}
	}
	if err := d.rebuild(); err != nil {
		return nil, err
	}
	return d, nil
}

// N reports the number of live indexed points.
func (d *Dynamic) N() int { return len(d.slots) }

// Insert indexes one new point at index N (matching pointset.Set.Append).
// The point lands in the loose set; an over-threshold debt triggers a
// rebuild.
func (d *Dynamic) Insert(p vec.V) error {
	if p.Dim() != d.dim {
		return fmt.Errorf("spatial: point dim %d != index dim %d", p.Dim(), d.dim)
	}
	if !p.IsFinite() {
		return errors.New("spatial: point has non-finite coordinates")
	}
	i := len(d.slots)
	d.slots = append(d.slots, dynSlot{p: p.Clone(), pos: -1})
	d.loose[i] = struct{}{}
	return d.maybeRebuild()
}

// RemoveSwap deletes index i with swap-with-last relabeling (matching
// pointset.Set.RemoveSwap): the last index moves into slot i. Removing the
// only point is an error — the index, like the Set, is never empty.
func (d *Dynamic) RemoveSwap(i int) error {
	n := len(d.slots)
	if i < 0 || i >= n {
		return fmt.Errorf("spatial: index %d out of range [0,%d)", i, n)
	}
	if n == 1 {
		return errors.New("spatial: cannot remove the only point")
	}
	d.drop(i)
	last := n - 1
	if i != last {
		d.slots[i] = d.slots[last]
		if pos := d.slots[i].pos; pos >= 0 {
			d.idxOfPos[pos] = i
		} else {
			delete(d.loose, last)
			d.loose[i] = struct{}{}
		}
	}
	d.slots[last] = dynSlot{}
	d.slots = d.slots[:last]
	return d.maybeRebuild()
}

// drop detaches slot i's point from the query structures.
func (d *Dynamic) drop(i int) {
	if pos := d.slots[i].pos; pos >= 0 {
		d.idxOfPos[pos] = -1
		d.dead++
	} else {
		delete(d.loose, i)
	}
}

// maybeRebuild rebuilds the inner index when the maintenance debt crosses
// the amortization threshold.
func (d *Dynamic) maybeRebuild() error {
	slack := len(d.slots) / 4
	if slack < dynamicRebuildMin {
		slack = dynamicRebuildMin
	}
	if d.dead+len(d.loose) <= slack {
		return nil
	}
	return d.rebuild()
}

// rebuild reconstructs the inner index over the live population; every slot
// becomes inner-backed at position == index and the debt resets.
func (d *Dynamic) rebuild() error {
	pts := make([]vec.V, len(d.slots))
	for i := range d.slots {
		pts[i] = d.slots[i].p
	}
	inner, err := d.build(pts, d.radius)
	if err != nil {
		return err
	}
	d.inner = inner
	d.idxOfPos = make([]int, len(d.slots))
	for i := range d.slots {
		d.slots[i].pos = i
		d.idxOfPos[i] = i
	}
	d.loose = map[int]struct{}{}
	d.dead = 0
	d.rebuilds++
	return nil
}

// AppendNear appends to dst the indices of every live point within
// Chebyshev distance r of c (a conservative superset for every p-norm with
// p ≥ 1, exactly like Grid.AppendNear and KDTree.AppendNear), in ascending
// index order. Tombstoned inner hits are filtered; loose points are
// window-tested directly. Swap-with-last relabeling breaks the inner
// index's order, so the appended run is sorted in place. Wrong-dimension and
// non-finite queries append nothing, mirroring the static indexes.
func (d *Dynamic) AppendNear(dst []int, c vec.V) []int {
	if c.Dim() != d.dim || !c.IsFinite() {
		return dst
	}
	start := len(dst)
	dst = d.inner.AppendNear(dst, c)
	// Relabel inner positions to current indices in place.
	out := dst[:start]
	for _, pos := range dst[start:] {
		if idx := d.idxOfPos[pos]; idx >= 0 {
			out = append(out, idx)
		}
	}
	for i := range d.loose {
		p := d.slots[i].p
		within := true
		for dd := 0; dd < d.dim; dd++ {
			if diff := math.Abs(p[dd] - c[dd]); diff > d.radius {
				within = false
				break
			}
		}
		if within {
			out = append(out, i)
		}
	}
	sort.Ints(out[start:])
	return out
}
