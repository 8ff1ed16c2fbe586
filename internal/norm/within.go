package norm

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/vec"
)

// Norm.Within's kernels. L1, L2 and LInf share two passes (DESIGN §7): a
// branch-free Chebyshev filter over every row, then exact distances on the
// rows that pass.

// checkBatchArgs validates the shared kernel preconditions and reports the
// number of rows.
func checkBatchArgs(c vec.V, coords []float64, dim int, idx, pos []int32, dist []float64) int {
	if dim <= 0 {
		panic(fmt.Sprintf("norm: batch dim %d must be positive", dim))
	}
	if len(c) != dim {
		panic(fmt.Sprintf("norm: batch center dim %d != %d", len(c), dim))
	}
	if len(coords)%dim != 0 {
		panic(fmt.Sprintf("norm: coords length %d is not a multiple of dim %d", len(coords), dim))
	}
	if len(pos) != len(dist) {
		panic(fmt.Sprintf("norm: pos length %d != dist length %d", len(pos), len(dist)))
	}
	n := len(coords) / dim
	if idx != nil {
		n = len(idx)
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("norm: %d rows exceed int32 positions", n))
	}
	return n
}

// absBits returns the bits of |x|, or 0 for a NaN: the term the scalar
// kernels' running max (`if a > m { m = a }` from m = 0) takes. Non-negative
// floats order as their bits, so the max runs on integers, without a branch.
func absBits(x float64) uint64 {
	u := math.Float64bits(x) &^ (1 << 63)
	if u > 0x7ff0000000000000 { // NaN
		u = 0
	}
	return u
}

// rowAt returns the row at position p.
func rowAt(coords []float64, dim int, idx []int32, p int32) []float64 {
	i := int(p)
	if idx != nil {
		i = int(idx[p])
	}
	return coords[i*dim : (i+1)*dim : (i+1)*dim]
}

// chebyshev is pass 1 of every kernel. For each row it stores the position
// and the Chebyshev distance m = max_d |c_d − x_d| (the running max of
// LInf.Dist and of vec.V.Dist2's first pass, bit for bit) and advances past
// the row exactly when m < r: every row is written, and only the count
// depends on the data, so the loop has no data-dependent branch. L1 and L2
// distances are never below m (DESIGN §7), so no row within r is dropped.
func chebyshev(c vec.V, coords []float64, dim int, idx []int32, r float64, pos []int32, dist []float64) ([]int32, []float64) {
	n := checkBatchArgs(c, coords, dim, idx, pos, dist)
	k := len(pos)
	pos, dist = slices.Grow(pos, n)[:k+n], slices.Grow(dist, n)[:k+n]
	switch dim {
	case 1:
		k = cheb1(c[0], coords, idx, r, pos, dist, k)
	case 2:
		k = cheb2(c[0], c[1], coords, idx, r, pos, dist, k)
	case 3:
		k = cheb3(c[0], c[1], c[2], coords, idx, r, pos, dist, k)
	default:
		for j := 0; j < n; j++ {
			var mb uint64
			for d, x := range rowAt(coords, dim, idx, int32(j)) {
				mb = max(mb, absBits(c[d]-x))
			}
			k = put(pos, dist, k, j, mb, r)
		}
	}
	return pos[:k], dist[:k]
}

// put stores position j and the Chebyshev distance with bits mb at k, and
// returns k advanced by one exactly when that distance is below r.
func put(pos []int32, dist []float64, k, j int, mb uint64, r float64) int {
	m := math.Float64frombits(mb)
	pos[k], dist[k] = int32(j), m
	if m < r {
		k++
	}
	return k
}

// cheb1, cheb2 and cheb3 are chebyshev's loops for dims 1, 2 and 3, with
// the rows read in order or through idx.
func cheb1(c0 float64, coords []float64, idx []int32, r float64, pos []int32, dist []float64, k int) int {
	if idx == nil {
		for j, x := range coords {
			k = put(pos, dist, k, j, absBits(c0-x), r)
		}
		return k
	}
	for j, i := range idx {
		k = put(pos, dist, k, j, absBits(c0-coords[i]), r)
	}
	return k
}

func cheb2(c0, c1 float64, coords []float64, idx []int32, r float64, pos []int32, dist []float64, k int) int {
	if idx == nil {
		for j := 0; j < len(coords)/2; j++ {
			row := coords[2*j : 2*j+2 : 2*j+2]
			k = put(pos, dist, k, j, max(absBits(c0-row[0]), absBits(c1-row[1])), r)
		}
		return k
	}
	for j, i := range idx {
		row := coords[2*i : 2*i+2 : 2*i+2]
		k = put(pos, dist, k, j, max(absBits(c0-row[0]), absBits(c1-row[1])), r)
	}
	return k
}

func cheb3(c0, c1, c2 float64, coords []float64, idx []int32, r float64, pos []int32, dist []float64, k int) int {
	if idx == nil {
		for j := 0; j < len(coords)/3; j++ {
			row := coords[3*j : 3*j+3 : 3*j+3]
			k = put(pos, dist, k, j, max(absBits(c0-row[0]), absBits(c1-row[1]), absBits(c2-row[2])), r)
		}
		return k
	}
	for j, i := range idx {
		row := coords[3*i : 3*i+3 : 3*i+3]
		k = put(pos, dist, k, j, max(absBits(c0-row[0]), absBits(c1-row[1]), absBits(c2-row[2])), r)
	}
	return k
}

// Within implements Norm. Pass 2 replaces each kept row's Chebyshev
// distance by L1.Dist's left-associated sum, term for term, and keeps the
// rows still below r.
func (L1) Within(c vec.V, coords []float64, dim int, idx []int32, r float64, pos []int32, dist []float64) ([]int32, []float64) {
	k := len(pos)
	pos, dist = chebyshev(c, coords, dim, idx, r, pos, dist)
	switch dim {
	case 2:
		c0, c1 := c[0], c[1]
		for j := k; j < len(pos); j++ {
			row := rowAt(coords, 2, idx, pos[j])
			k = keep(pos, dist, k, j, math.Abs(c0-row[0])+math.Abs(c1-row[1]), r)
		}
	case 3:
		c0, c1, c2 := c[0], c[1], c[2]
		for j := k; j < len(pos); j++ {
			row := rowAt(coords, 3, idx, pos[j])
			k = keep(pos, dist, k, j, math.Abs(c0-row[0])+math.Abs(c1-row[1])+math.Abs(c2-row[2]), r)
		}
	default:
		for j := k; j < len(pos); j++ {
			var s float64
			for d, x := range rowAt(coords, dim, idx, pos[j]) {
				s += math.Abs(c[d] - x)
			}
			k = keep(pos, dist, k, j, s, r)
		}
	}
	return pos[:k], dist[:k]
}

// keep is pass 2's compaction: it moves the row at j to k with its exact
// distance d, and returns k advanced by one exactly when d < r. k ≤ j, so
// the row at j has been read before it is overwritten.
func keep(pos []int32, dist []float64, k, j int, d, r float64) int {
	pos[k], dist[k] = pos[j], d
	if d < r {
		k++
	}
	return k
}

// Within implements Norm. Pass 2 replays vec.V.Dist2's second pass on the
// kept rows, with pass 1's maximum m as its scale: the same divisions, the
// same left-to-right square sum and the same sqrt, so every distance has
// Dist2's bits (0 for coincident rows, where m = 0). In 1-D that distance is
// m itself, so the kernel is one pass.
func (L2) Within(c vec.V, coords []float64, dim int, idx []int32, r float64, pos []int32, dist []float64) ([]int32, []float64) {
	k := len(pos)
	pos, dist = chebyshev(c, coords, dim, idx, r, pos, dist)
	switch dim {
	case 1:
		return pos, dist
	case 2:
		c0, c1 := c[0], c[1]
		for j := k; j < len(pos); j++ {
			d := dist[j]
			if m := d; m != 0 {
				row := rowAt(coords, 2, idx, pos[j])
				r0, r1 := (c0-row[0])/m, (c1-row[1])/m
				d = m * math.Sqrt(r0*r0+r1*r1)
			}
			k = keep(pos, dist, k, j, d, r)
		}
	case 3:
		c0, c1, c2 := c[0], c[1], c[2]
		for j := k; j < len(pos); j++ {
			d := dist[j]
			if m := d; m != 0 {
				row := rowAt(coords, 3, idx, pos[j])
				r0, r1, r2 := (c0-row[0])/m, (c1-row[1])/m, (c2-row[2])/m
				d = m * math.Sqrt(r0*r0+r1*r1+r2*r2)
			}
			k = keep(pos, dist, k, j, d, r)
		}
	default:
		for j := k; j < len(pos); j++ {
			d := dist[j]
			if m := d; m != 0 {
				var s float64
				for i, x := range rowAt(coords, dim, idx, pos[j]) {
					q := (c[i] - x) / m
					s += q * q
				}
				d = m * math.Sqrt(s)
			}
			k = keep(pos, dist, k, j, d, r)
		}
	}
	return pos[:k], dist[:k]
}

// Within implements Norm. The Chebyshev distance is LInf.Dist, so the
// filter is the whole kernel.
func (LInf) Within(c vec.V, coords []float64, dim int, idx []int32, r float64, pos []int32, dist []float64) ([]int32, []float64) {
	return chebyshev(c, coords, dim, idx, r, pos, dist)
}

// Within implements Norm with one Dist per row. It has no Chebyshev
// filter: the rounded powers can put a distance below max_d |c_d − x_d|,
// so the filter could drop a row that Dist keeps.
func (n LP) Within(c vec.V, coords []float64, dim int, idx []int32, r float64, pos []int32, dist []float64) ([]int32, []float64) {
	rows := checkBatchArgs(c, coords, dim, idx, pos, dist)
	for j := 0; j < rows; j++ {
		if d := n.Dist(c, rowAt(coords, dim, idx, int32(j))); d < r {
			pos, dist = append(pos, int32(j)), append(dist, d)
		}
	}
	return pos, dist
}
