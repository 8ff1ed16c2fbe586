package core

import (
	"context"

	"repro/internal/obs"
	"repro/internal/reward"
)

// SimpleGreedy is the paper's Algorithm 3 ("greedy 3"): each round centers
// the disk on the point with the largest remaining single-point reward
// w_i·y_i (ties toward the lowest index) and then collects the coverage
// reward that center yields. Complexity O(kn) (Theorem 3).
type SimpleGreedy struct{}

// Name implements Algorithm.
func (SimpleGreedy) Name() string { return "greedy3" }

// Run implements Algorithm.
func (a SimpleGreedy) Run(ctx context.Context, in *reward.Instance, k int) (*Result, error) {
	if err := checkArgs(in, k); err != nil {
		return nil, err
	}
	ctx = orBG(ctx)
	n := in.N()
	y := in.NewResiduals()
	res := &Result{Algorithm: a.Name()}
	col := in.Collector()
	for j := 0; j < k; j++ {
		if err := ctx.Err(); err != nil {
			return CancelRun(col, res, err)
		}
		rs := startRound(ctx, col, a.Name(), j+1)
		// argmax_i w_i·y_i^j with index tie-break (line 3 of Algorithm 3).
		best, bestVal := 0, in.Set.Weight(0)*y[0]
		for i := 1; i < n; i++ {
			if v := in.Set.Weight(i) * y[i]; v > bestVal {
				best, bestVal = i, v
			}
		}
		c := in.Set.Point(best).Clone()
		gain := in.ApplyRound(c, y)
		if rs.active() {
			rs.c.Count(obs.CtrCandidates, int64(n))
		}
		rs.commit(res, c, gain, map[string]float64{"candidates": float64(n)})
	}
	return res, nil
}

var _ Algorithm = SimpleGreedy{}
