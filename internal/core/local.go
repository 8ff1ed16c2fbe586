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
	// Obs receives per-round and per-scan telemetry; nil runs
	// uninstrumented.
	Obs obs.Collector
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
	for j := 0; j < k; j++ {
		if err := ctx.Err(); err != nil {
			return cancelRun(a.Obs, res, err)
		}
		rs := startRound(ctx, a.Obs, a.Name(), j+1)
		if rs.active() {
			rs.c.Emit(obs.Event{Type: obs.EvScanStart, Alg: a.Name(), Round: j + 1})
		}
		idx, _, cerr := parallel.Argmax(ctx, n, a.Workers, a.Obs, func(i int) float64 {
			return in.RoundGain(in.Set.Point(i), y)
		})
		if cerr != nil {
			// Cancelled mid-scan: the argmax saw only part of the
			// candidates, so committing it could diverge from the
			// uncancelled run. Discard the round and return the prefix.
			return cancelRun(a.Obs, res, cerr)
		}
		if rs.active() {
			rs.c.Count(obs.CtrCandidates, int64(n))
			rs.c.Emit(obs.Event{Type: obs.EvScanEnd, Alg: a.Name(), Round: j + 1,
				Fields: map[string]float64{"candidates": float64(n)}})
		}
		c := in.Set.Point(idx).Clone()
		gain := in.ApplyRound(c, y)
		rs.commit(res, c, gain, map[string]float64{"candidates": float64(n)})
	}
	return res, nil
}

var _ Algorithm = LocalGreedy{}

// BestPointCenter exposes one round of the Algorithm-2 selection rule:
// the index of the data point maximizing the coverage reward against the
// residuals y, and that reward. It is reused by the exhaustive baseline's
// seeding and by tests.
func BestPointCenter(in *reward.Instance, y []float64, workers int) (int, float64) {
	idx, gain, _ := parallel.Argmax(context.TODO(), in.N(), workers, nil, func(i int) float64 {
		return in.RoundGain(in.Set.Point(i), y)
	})
	return idx, gain
}

// centersClone deep-copies a center list (helper shared by the algorithms).
func centersClone(cs []vec.V) []vec.V {
	out := make([]vec.V, len(cs))
	for i, c := range cs {
		out[i] = c.Clone()
	}
	return out
}
