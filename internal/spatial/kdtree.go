package spatial

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/vec"
)

// KDTree is a static k-d tree over a fixed point set, offering the same
// conservative AppendNear queries as Grid (all points within Chebyshev
// distance r of the query). It trades Grid's O(1) bucket math for robustness
// to highly non-uniform point densities, where a uniform grid degenerates
// into a few overfull cells.
type KDTree struct {
	radius float64
	dim    int
	nodes  []kdNode
	root   int
	n      int
}

type kdNode struct {
	point       vec.V
	index       int
	axis        int
	left, right int // node indices; -1 = leaf edge
}

// NewKDTree builds a balanced k-d tree (median splits) indexing the points
// for radius-r queries. The same validation rules as NewGrid apply.
func NewKDTree(points []vec.V, radius float64) (*KDTree, error) {
	if len(points) == 0 {
		return nil, errors.New("spatial: empty point set")
	}
	if radius <= 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return nil, fmt.Errorf("spatial: invalid radius %v", radius)
	}
	dim := points[0].Dim()
	for _, p := range points {
		if p.Dim() != dim {
			return nil, vec.ErrDimMismatch
		}
	}
	t := &KDTree{radius: radius, dim: dim, n: len(points)}
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	t.nodes = make([]kdNode, 0, len(points))
	t.root = t.build(points, idx, 0)
	return t, nil
}

// build recursively constructs the subtree over idx, returning the node
// index (or −1 for an empty span).
func (t *KDTree) build(points []vec.V, idx []int, depth int) int {
	if len(idx) == 0 {
		return -1
	}
	axis := depth % t.dim
	sort.SliceStable(idx, func(a, b int) bool {
		return points[idx[a]][axis] < points[idx[b]][axis]
	})
	mid := len(idx) / 2
	node := kdNode{point: points[idx[mid]], index: idx[mid], axis: axis}
	pos := len(t.nodes)
	t.nodes = append(t.nodes, node)
	left := t.build(points, idx[:mid], depth+1)
	right := t.build(points, idx[mid+1:], depth+1)
	t.nodes[pos].left = left
	t.nodes[pos].right = right
	return pos
}

// N reports the number of indexed points.
func (t *KDTree) N() int { return t.n }

// AppendNear appends to dst the indices of exactly the points within
// Chebyshev distance t.radius of c (a conservative superset for every p-norm
// with p ≥ 1, like Grid.AppendNear), in ascending order. The tree visits
// points in node order, so the appended run is sorted in place.
//
// Wrong-dimension queries and queries with NaN or ±Inf coordinates append
// nothing, mirroring Grid.AppendNear: no finite indexed point lies within a
// finite radius of a non-finite coordinate. Without the guard the recursive
// descent compares raw coordinates, and NaN comparisons (all false) both
// prune every subtree and pass the box test at the root, returning a bogus
// candidate.
func (t *KDTree) AppendNear(dst []int, c vec.V) []int {
	if c.Dim() != t.dim || !c.IsFinite() {
		return dst
	}
	start := len(dst)
	dst = t.query(t.root, c, dst)
	sort.Ints(dst[start:])
	return dst
}

func (t *KDTree) query(ni int, c vec.V, out []int) []int {
	if ni < 0 {
		return out
	}
	node := &t.nodes[ni]
	// Chebyshev box test: inside iff every |Δd| <= radius.
	inside := true
	for d := 0; d < t.dim; d++ {
		if math.Abs(node.point[d]-c[d]) > t.radius {
			inside = false
			break
		}
	}
	if inside {
		out = append(out, node.index)
	}
	delta := c[node.axis] - node.point[node.axis]
	if delta <= t.radius {
		out = t.query(node.left, c, out)
	}
	if delta >= -t.radius {
		out = t.query(node.right, c, out)
	}
	return out
}
