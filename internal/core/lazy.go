package core

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/reward"
)

// LazyGreedy is an accelerated drop-in replacement for LocalGreedy
// (Algorithm 2) using lazy marginal-gain evaluation (the CELF optimization
// for submodular greedy). Because a candidate's round gain
// Σ w_i·min([1−d/r]_+, y_i) can only shrink as residuals y decrease, the
// gain computed in an earlier round is a valid upper bound; candidates are
// kept in a max-heap keyed by their stale bounds and re-evaluated only when
// they reach the top. The selected centers, per-round gains, and tie-breaks
// are bit-identical to LocalGreedy; only the number of gain evaluations
// changes (often O(n log n)-ish total instead of O(kn²) at large n).
//
// With a collector on the instance, each round also counts the stale heap
// entries it re-evaluated (obs.CtrLazyRepops) — the number that quantifies
// how many evaluations laziness saved versus LocalGreedy's n per round.
type LazyGreedy struct{}

// Name implements Algorithm. The name reflects equivalence to Algorithm 2.
func (LazyGreedy) Name() string { return "greedy2-lazy" }

// candEntry is a heap entry: a candidate index with the round gain bound
// computed at some past round. Its int32 fields keep it at 16 bytes, the
// heap's whole cost per candidate.
type candEntry struct {
	bound float64
	idx   int32
	round int32 // round the bound was computed in; fresh when == current
}

// candHeap orders by bound descending, then index ascending, matching the
// paper's lowest-index tie-break exactly.
type candHeap []candEntry

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(a, b int) bool {
	if h[a].bound != h[b].bound {
		return h[a].bound > h[b].bound
	}
	return h[a].idx < h[b].idx
}
func (h candHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *candHeap) Push(x interface{}) {
	*h = append(*h, x.(candEntry))
}
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Run implements Algorithm.
func (a LazyGreedy) Run(ctx context.Context, in *reward.Instance, k int) (*Result, error) {
	if err := checkArgs(in, k); err != nil {
		return nil, err
	}
	ctx = orBG(ctx)
	n := in.N()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("core: greedy2-lazy: %d points exceed its int32 heap indices", n)
	}
	y := in.NewResiduals()
	res := &Result{Algorithm: a.Name()}
	col := in.Collector()

	var h candHeap
	for j := 0; j < k; j++ {
		if err := ctx.Err(); err != nil {
			return CancelRun(col, res, err)
		}
		rs := startRound(ctx, col, a.Name(), j+1)
		if j == 0 {
			// Exact gains for every candidate, inside round 1 so its wall
			// time includes them.
			gains := make([]float64, n)
			if err := in.RoundGains(ctx, y, gains); err != nil {
				return CancelRun(col, res, err)
			}
			h = make(candHeap, n)
			for i, g := range gains {
				h[i] = candEntry{bound: g, idx: int32(i)}
			}
			heap.Init(&h)
		}
		// Refresh stale tops until the best entry's bound is current for
		// this round; bounds only shrink, so once the top is fresh no
		// stale entry below can beat it. Heap refreshes are idempotent
		// reads of the residuals, so a mid-round cancellation can simply
		// abandon the half-refreshed heap and return the committed prefix.
		repops := 0
		for h[0].round != int32(j) {
			if err := ctx.Err(); err != nil {
				return CancelRun(col, res, err)
			}
			h[0].bound = in.RoundGain(in.Set.Point(int(h[0].idx)), y)
			h[0].round = int32(j)
			heap.Fix(&h, 0)
			repops++
		}
		best := h[0]
		c := in.Set.Point(int(best.idx)).Clone()
		gain := in.ApplyRound(c, y)
		// The chosen entry's bound is now stale for the next round; it is
		// refreshed like any other candidate when it resurfaces. Round 0
		// charges the n initial exact evaluations; later rounds only the
		// re-pops actually performed.
		evals := repops
		if j == 0 {
			evals += n
		}
		if rs.active() {
			rs.c.Count(obs.CtrLazyRepops, int64(repops))
			rs.c.Count(obs.CtrCandidates, int64(evals))
		}
		rs.commit(res, c, gain, map[string]float64{
			"repops":     float64(repops),
			"candidates": float64(evals),
		})
	}
	return res, nil
}

var _ Algorithm = LazyGreedy{}
