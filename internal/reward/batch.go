package reward

import (
	"context"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/spatial"
	"repro/internal/vec"
)

// The evaluation kernels: every routine makes one Norm.Within call per
// center over the point set's contiguous row-major coordinates
// (pointset.Set.Coords) and adds terms only for the rows it returns. Each
// routine's arithmetic is the per-point definition's exactly — same
// coverage values, same summation order, with skipped terms only where
// IEEE addition of the skipped +0 term is a bit-exact no-op
// (TestBatchedScalarEquivalence holds them to plain loops over Norm.Dist).

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

// within runs the norm's kernel from c over rows (all of them with idx
// nil, else the rows idx names, read in place), leaving the rows strictly
// within the radius in sc.pos and their distances in sc.dist.
func (in *Instance) within(sc *scratch, c vec.V, rows []float64, idx []int32) {
	sc.pos, sc.dist = in.Norm.Within(c, rows, in.Set.Dim(), idx, in.Radius, sc.pos[:0], sc.dist[:0])
}

// near leaves c's in-radius points in sc.pos and sc.dist, in ascending
// index order. Without a finder it reads every row and returns nil: a
// position is the point's index. With one it reads the finder's window
// into sc.idx and returns it: position p is point idx[p].
func (in *Instance) near(sc *scratch, c vec.V) []int32 {
	if in.finder == nil {
		in.within(sc, c, in.Set.Coords(), nil)
		return nil
	}
	sc.idx = in.finder.AppendNear(sc.idx[:0], c)
	sc.pos, sc.dist = sc.pos[:0], sc.dist[:0]
	if len(sc.idx) > 0 { // a nil idx would mean every row
		in.within(sc, c, in.Set.Coords(), sc.idx)
	}
	return sc.idx
}

// gainsCheckRows is how many distances the first-round sweep computes
// between two reads of its context: a fraction of a millisecond of kernel
// time, against a read of tens of nanoseconds.
const gainsCheckRows = 1 << 16

// roundGainsSweep is RoundGains' loop. Every norm's Dist is symmetric to
// the bit (norm.Norm's contract; a NaN distance never enters a sum), so
// d(a, b) feeds both out[a]'s term for b and out[b]'s term for a, and each
// pair {a, b} goes through the kernel once, from its lower end. Sweeping a
// in ascending order keeps every out[x]'s addition order: partners a < x
// arrive from earlier iterations in ascending a, then iteration x adds its
// self term and its partners b > x in ascending order, which is the
// ascending window order of RoundGain's sum. The finder is conservative,
// so d(a, b) < r puts b in a's window, and the kernel returns exactly the
// d < r terms RoundGain adds. The sweep is sequential on purpose: splitting
// the a-range would re-associate the sums.
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

// objectiveBatch is Objective's loop. Eq. 7's per-point definition is
// point-major with an early break once a point's fraction saturates; this
// center-major version skips saturated points before adding, which commits
// exactly the same additions in exactly the same per-point order.
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
			// Every point has broken out of the per-point loop; later
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

// batchCoverages fills out[i] = Coverage(c, i) for every point through the
// kernel.
func (in *Instance) batchCoverages(c vec.V, out []float64) {
	clear(out)
	sc := scratchPool.Get().(*scratch)
	in.within(sc, c, in.Set.Coords(), nil)
	for j, i := range sc.pos {
		out[i] = 1 - sc.dist[j]/in.Radius
	}
	scratchPool.Put(sc)
}
