package reward

import (
	"context"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/spatial"
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
// for per-point values, pos and dist for the kernel's in-radius rows, idx
// for finder queries. RoundGain is called concurrently from candidate scans,
// so buffers are pooled rather than hung off the Instance.
type scratch struct {
	a    []float64
	pos  []int32
	dist []float64
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

// within runs the instance's kernel from c over rows (all of them with idx
// nil, else the rows idx names, read in place), leaving the rows strictly
// within the radius in sc.pos and their distances in sc.dist.
func (in *Instance) within(sc *scratch, c vec.V, rows []float64, idx []int32) {
	sc.pos, sc.dist = in.batch.Within(c, rows, in.Set.Dim(), idx, in.Radius, sc.pos[:0], sc.dist[:0])
}

// roundGainBatch is RoundGain's batched path: over every point with idx
// nil, otherwise over the points idx names (ascending).
func (in *Instance) roundGainBatch(sc *scratch, c vec.V, idx []int32, y []float64) float64 {
	in.within(sc, c, in.Set.Coords(), idx)
	w, r := in.Set.Weights(), in.Radius
	var g float64
	for j, p := range sc.pos {
		i := p
		if idx != nil {
			i = idx[p]
		}
		z := 1 - sc.dist[j]/r
		if yi := y[i]; z > yi {
			z = yi
		}
		g += w[i] * z
	}
	return g
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
// is conservative, so d(a, b) < r puts b in a's window, and the kernel
// returns exactly the d < r terms RoundGain adds. The sweep is sequential
// on purpose: splitting the a-range would re-associate the sums.
func (in *Instance) roundGainsSweep(ctx context.Context, y, out []float64) error {
	n, dim := len(out), in.Set.Dim()
	coords, w, r := in.Set.Coords(), in.Set.Weights(), in.Radius
	clear(out)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	// A grid's filled windows are read in place; a finder without them is
	// queried per point.
	var views spatial.Windows
	filled := false
	if g, ok := in.finder.(*spatial.Grid); ok {
		views, filled = g.Windows()
	}
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
		// rows, with one the upper part of a's window.
		tail, idx := coords[(a+1)*dim:], []int32(nil)
		scanned := n - a - 1
		if in.finder != nil {
			if filled {
				idx = views.Of(a)
			} else {
				sc.idx = in.finder.AppendNear(sc.idx[:0], c)
				idx = sc.idx
			}
			upper, _ := slices.BinarySearch(idx, int32(a+1))
			tail, idx, scanned = coords, idx[upper:], len(idx)-upper
		}
		sc.pos, sc.dist = sc.pos[:0], sc.dist[:0]
		if scanned > 0 {
			in.within(sc, c, tail, idx)
		}
		wa, ya := w[a], y[a]
		za := 1.0 // the self term: d(a, a) = 0
		if za > ya {
			za = ya
		}
		g := out[a] + wa*za
		for j, p := range sc.pos {
			b := a + 1 + int(p)
			if idx != nil {
				b = int(idx[p])
			}
			z := 1 - sc.dist[j]/r
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
		rows += scanned + 1
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
	frac := sc.a
	clear(frac)
	r := in.Radius
	unsaturated := n
	for _, c := range centers {
		in.within(sc, c, in.Set.Coords(), nil)
		for j, i := range sc.pos {
			if frac[i] >= 1 {
				continue
			}
			if frac[i] += 1 - sc.dist[j]/r; frac[i] >= 1 {
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
// kernel, reporting false (out untouched) when batching is off.
func (in *Instance) batchCoverages(c vec.V, out []float64) bool {
	if !in.batchOn() {
		return false
	}
	clear(out)
	sc := scratchPool.Get().(*scratch)
	in.within(sc, c, in.Set.Coords(), nil)
	for j, i := range sc.pos {
		out[i] = 1 - sc.dist[j]/in.Radius
	}
	scratchPool.Put(sc)
	return true
}
