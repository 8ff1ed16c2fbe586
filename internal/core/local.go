package core

import (
	"context"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/reward"
	"repro/internal/vec"
)

// LocalGreedy is the paper's Algorithm 2 ("greedy 2"): in each of k rounds,
// every data point is a candidate center; the one with the largest coverage
// reward against the current residuals wins, with ties broken toward the
// lowest point index. Complexity O(kn²) sequential; the candidate scan is
// embarrassingly parallel and is spread over Workers goroutines with a
// deterministic index-order tie-break.
type LocalGreedy struct {
	// Workers bounds the candidate-scan parallelism; <= 0 uses all CPUs.
	Workers int
}

// Name implements Algorithm.
func (LocalGreedy) Name() string { return "greedy2" }

// Run implements Algorithm.
func (a LocalGreedy) Run(ctx context.Context, in *reward.Instance, k int) (*Result, error) {
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
		idx, _, cerr := parallel.Argmax(ctx, n, a.Workers, col, func(i int) float64 {
			return in.RoundGain(in.Set.Point(i), y)
		})
		if cerr != nil {
			// Cancelled mid-scan: the argmax saw only part of the
			// candidates, so committing it could diverge from the
			// uncancelled run. Discard the round and return the prefix.
			return CancelRun(col, res, cerr)
		}
		if rs.active() {
			rs.c.Count(obs.CtrCandidates, int64(n))
		}
		c := in.Set.Point(idx).Clone()
		gain := in.ApplyRound(c, y)
		rs.commit(res, c, gain, map[string]float64{"candidates": float64(n)})
	}
	return res, nil
}

var _ Algorithm = LocalGreedy{}

// centersClone deep-copies a center list (helper shared by the algorithms).
func centersClone(cs []vec.V) []vec.V {
	out := make([]vec.V, len(cs))
	for i, c := range cs {
		out[i] = c.Clone()
	}
	return out
}
