package reward

import (
	"context"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/vec"
)

// The batched evaluation path: when the instance norm implements norm.Batch,
// the per-point interface dispatch of the scalar path collapses into one
// kernel call over the point set's contiguous row-major coordinates
// (pointset.Set.Coords). Every batched routine reproduces the scalar
// routine's arithmetic exactly — same coverage values, same summation order,
// with skipped terms only where IEEE addition of the skipped +0 term is a
// bit-exact no-op — so the two paths are interchangeable on any instance
// (TestBatchedScalarEquivalence enforces this).

// scratch holds the reusable per-call buffers of the evaluation kernels: a
// and b for batched distances and gathered rows, idx for finder queries.
// RoundGain is called concurrently from candidate scans, so buffers are
// pooled rather than hung off the Instance.
type scratch struct {
	a, b []float64
	idx  []int32
}

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

// take resizes buf to n float64s, reallocating only on capacity growth.
func take(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// batchOn reports whether the batched path is active for this instance.
func (in *Instance) batchOn() bool { return in.batch != nil }

// distsInto runs the instance's batch kernel: out[i] receives the distance
// from c to row i of flat (exact for rows within the radius; free to be any
// value ≥ r beyond it when the norm supports capped evaluation).
func (in *Instance) distsInto(c vec.V, flat []float64, dim int, out []float64) {
	if in.rbatch != nil {
		in.rbatch.DistsCapped(c, flat, dim, in.Radius, out)
	} else {
		in.batch.Dists(c, flat, dim, out)
	}
}

// roundGainFlat is RoundGain's batched full-scan path.
func (in *Instance) roundGainFlat(c vec.V, y []float64) float64 {
	n := in.N()
	sc := scratchPool.Get().(*scratch)
	sc.a = take(sc.a, n)
	dists := sc.a
	in.distsInto(c, in.Set.Coords(), in.Set.Dim(), dists)
	w := in.Set.Weights()
	r := in.Radius
	var g float64
	for i, d := range dists {
		if d >= r {
			continue // coverage 0; adding w_i·0 is a bit-exact no-op
		}
		z := 1 - d/r
		if yi := y[i]; z > yi {
			z = yi
		}
		g += w[i] * z
	}
	scratchPool.Put(sc)
	return g
}

// roundGainGather is RoundGain's batched path over the finder's candidate
// indices in sc.idx (ascending): candidate rows are gathered into a
// contiguous block of the same scratch so the kernel still streams linearly.
func (in *Instance) roundGainGather(sc *scratch, c vec.V, y []float64) float64 {
	idx := sc.idx
	sc.a = take(sc.a, len(idx))
	dists, flat := sc.a, in.gatherRows(sc, idx)
	in.distsInto(c, flat, in.Set.Dim(), dists)
	r := in.Radius
	var g float64
	for j, d := range dists {
		if d >= r {
			continue
		}
		z := 1 - d/r
		i := idx[j]
		if yi := y[i]; z > yi {
			z = yi
		}
		g += in.Set.Weight(int(i)) * z
	}
	return g
}

// gatherRows copies the rows of the points in idx, in order, into sc.b
// and returns them, so the kernel streams one contiguous block.
func (in *Instance) gatherRows(sc *scratch, idx []int32) []float64 {
	dim, coords := in.Set.Dim(), in.Set.Coords()
	sc.b = take(sc.b, len(idx)*dim)
	flat := sc.b
	for j, i := range idx {
		row, out := coords[int(i)*dim:(int(i)+1)*dim], flat[j*dim:(j+1)*dim]
		for d, x := range row {
			out[d] = x
		}
	}
	return flat
}

// gainsCheckRows is how many distances the first-round sweep computes
// between two reads of its context: a fraction of a millisecond of kernel
// time, against a read of tens of nanoseconds.
const gainsCheckRows = 1 << 16

// roundGainsSweep is RoundGains' batched path. The distance kernels are
// symmetric to the bit (x − c and c − x differ only in sign under
// round-to-nearest, and the kernels take abs, max and squares of the
// differences), so d(a, b) feeds both out[a]'s term for b and out[b]'s
// term for a, and each pair {a, b} goes through the kernel once, from its
// lower end. Sweeping a in ascending order keeps every out[x]'s addition
// order: partners a < x arrive from earlier iterations in ascending a,
// then iteration x adds its self term and its partners b > x in ascending
// order, which is the ascending window order of RoundGain's sum. The finder
// is conservative, so d(a, b) < r puts b in a's window; the d ≥ r terms
// skipped here are the exact no-ops RoundGain skips. The sweep is
// sequential on purpose: splitting the a-range would re-associate the sums.
func (in *Instance) roundGainsSweep(ctx context.Context, y, out []float64) error {
	n, dim := len(out), in.Set.Dim()
	coords, w, r := in.Set.Coords(), in.Set.Weights(), in.Radius
	for i := range out {
		out[i] = 0
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	rows := gainsCheckRows // read ctx before the first point
	for a := 0; a < n; a++ {
		if rows >= gainsCheckRows {
			if err := ctx.Err(); err != nil {
				in.countGainEvals(a)
				return err
			}
			rows = 0
		}
		c := in.Set.Point(a)
		// a's partners b > a: without a finder the contiguous tail of the
		// rows, with one the upper part of a's window, gathered.
		flat, idx := coords[(a+1)*dim:], []int32(nil)
		if in.finder != nil {
			sc.idx = in.finder.AppendNear(sc.idx[:0], c)
			upper, _ := slices.BinarySearch(sc.idx, int32(a+1))
			idx = sc.idx[upper:]
			flat = in.gatherRows(sc, idx)
		}
		sc.a = take(sc.a, len(flat)/dim)
		dists := sc.a
		in.distsInto(c, flat, dim, dists)
		wa, ya := w[a], y[a]
		za := 1.0 // the self term: d(a, a) = 0
		if za > ya {
			za = ya
		}
		g := out[a] + wa*za
		for j, d := range dists {
			if d >= r {
				continue
			}
			b := a + 1 + j
			if in.finder != nil {
				b = int(idx[j])
			}
			z := 1 - d/r
			zb := z
			if yb := y[b]; zb > yb {
				zb = yb
			}
			g += w[b] * zb
			if z > ya {
				z = ya
			}
			out[b] += wa * z
		}
		out[a] = g
		rows += len(dists) + 1
	}
	in.countGainEvals(n)
	return nil
}

// countGainEvals charges evals RoundGain calls' worth of obs.CtrGainEvals.
func (in *Instance) countGainEvals(evals int) {
	if in.obs != nil {
		in.obs.Count(obs.CtrGainEvals, int64(evals))
	}
}

// objectiveBatch is Objective's batched path. The scalar loop is point-major
// with an early break once a point's fraction saturates; this center-major
// version skips saturated points before adding, which commits exactly the
// same additions in exactly the same per-point order.
func (in *Instance) objectiveBatch(centers []vec.V) float64 {
	n := in.N()
	sc := scratchPool.Get().(*scratch)
	sc.a = take(sc.a, n)
	sc.b = take(sc.b, n)
	dists, frac := sc.a, sc.b
	for i := range frac {
		frac[i] = 0
	}
	r := in.Radius
	unsaturated := n
	for _, c := range centers {
		in.distsInto(c, in.Set.Coords(), in.Set.Dim(), dists)
		for i, d := range dists {
			if frac[i] >= 1 || d >= r {
				continue
			}
			if frac[i] += 1 - d/r; frac[i] >= 1 {
				unsaturated--
			}
		}
		if unsaturated == 0 {
			// Every point has broken out of the scalar loop; later
			// centers cannot change anything.
			break
		}
	}
	w := in.Set.Weights()
	var total float64
	for i, f := range frac {
		if f > 1 {
			f = 1
		}
		total += w[i] * f
	}
	scratchPool.Put(sc)
	return total
}

// batchCoverages fills out[i] = Coverage(c, i) for every point via the batch
// kernel, reporting false (out untouched) when batching is off. out doubles
// as the kernel's distance buffer.
func (in *Instance) batchCoverages(c vec.V, out []float64) bool {
	if !in.batchOn() {
		return false
	}
	in.distsInto(c, in.Set.Coords(), in.Set.Dim(), out)
	r := in.Radius
	for i, d := range out {
		if d >= r {
			out[i] = 0
		} else {
			out[i] = 1 - d/r
		}
	}
	return true
}
