package core

import (
	"context"

	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/vec"
)

// WarmStarted wraps a base algorithm with a carry-over comparison for
// re-solves under churn: Run runs Base cold, scores the previous solve's
// centers on the current (possibly mutated) instance, and returns whichever
// is better. The wrapper is therefore never worse than Base alone, and under
// light churn the carried-over centers frequently win outright — the churn
// loop surfaces that via obs.CtrWarmWins and the churn.warmstart_improvement
// histogram, both counted on the instance's collector.
//
// The comparison only happens on complete runs with len(Prev) == k: a
// cancelled run keeps the anytime contract (a bit-exact prefix of the cold
// run), and a carry-over of the wrong size or dimension is not a valid
// solution to the new problem, so the cold result stands.
type WarmStarted struct {
	Base Algorithm
	// Prev is the previous solve's center set (not mutated, not aliased by
	// the returned result).
	Prev []vec.V
}

// Name reports the base algorithm's name: warm-starting changes which result
// is kept, not what algorithm produced it.
func (w WarmStarted) Name() string { return w.Base.Name() }

// Run implements Algorithm.
func (w WarmStarted) Run(ctx context.Context, in *reward.Instance, k int) (*Result, error) {
	res, err := w.Base.Run(ctx, in, k)
	if err != nil || res == nil || len(w.Prev) != k {
		return res, err
	}
	warm, werr := carryOver(in, w.Prev, res.Algorithm)
	if werr != nil {
		// Invalid carry-over (dimension change, nil instance): the cold
		// result stands.
		return res, nil
	}
	improvement := warm.Total - res.Total
	if improvement < 0 {
		improvement = 0
	}
	col := in.Collector()
	if col != nil {
		col.Count(obs.CtrWarmStarts, 1)
		col.Observe(obs.ObsWarmImprove, improvement)
		col.Emit(obs.Event{Type: obs.EvWarmStart, Alg: res.Algorithm,
			Fields: map[string]float64{"cold": res.Total, "warm": warm.Total, "improvement": improvement}})
	}
	if warm.Total > res.Total {
		if col != nil {
			col.Count(obs.CtrWarmWins, 1)
		}
		return warm, nil
	}
	return res, nil
}

// carryOver replays prev as a round sequence over the instance, producing a
// valid Result whose per-round gains come from the same capped-coverage
// bookkeeping the algorithms use. Gains are non-negative by monotonicity:
// adding a center never decreases any per-point coverage fraction, and IEEE
// summation over pointwise-larger terms is order-preserving.
func carryOver(in *reward.Instance, prev []vec.V, alg string) (*Result, error) {
	e, err := reward.NewEvaluator(in, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Algorithm: alg, Centers: make([]vec.V, 0, len(prev)), Gains: make([]float64, 0, len(prev))}
	before := e.Objective()
	for _, c := range prev {
		if err := e.Add(c); err != nil {
			return nil, err
		}
		after := e.Objective()
		res.Centers = append(res.Centers, c.Clone())
		res.Gains = append(res.Gains, after-before)
		before = after
	}
	res.Total = before
	return res, nil
}
