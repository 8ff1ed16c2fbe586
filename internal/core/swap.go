package core

import (
	"context"
	"errors"

	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/vec"
)

// SwapLocalSearch refines another algorithm's solution by 1-swaps: while any
// replacement of one selected center with one candidate data point strictly
// improves the objective, apply the best such swap. For monotone submodular
// objectives under a cardinality constraint, swap-stable solutions carry the
// classical 1/2-approximation guarantee, and seeding from a greedy solution
// means the result is never worse than the seed. The paper stops at pure
// greedy; this is the natural "future work" refinement.
type SwapLocalSearch struct {
	// Seed provides the initial solution (default LocalGreedy).
	Seed Algorithm
	// MaxPasses bounds full sweeps over (center, candidate) pairs
	// (default 10; each pass is O(k·n) objective evaluations of O(kn)).
	MaxPasses int
}

// Name implements Algorithm.
func (s SwapLocalSearch) Name() string { return "greedy2+swap" }

// Run implements Algorithm. With a collector on the instance, the seed
// reports its own rounds, and the search adds one obs.EvSwapPass event per
// sweep, the swap evaluations (obs.CtrSwapEvals), and the round stages of
// the final gain re-derivation: 2k rounds in all.
//
// Cancellation is anytime at two granularities:
// during the seed run the seed's own partial prefix is re-labelled and
// returned, and during swap refinement the current (already valid, never
// worse than the seed) center set is committed and returned.
func (s SwapLocalSearch) Run(ctx context.Context, in *reward.Instance, k int) (*Result, error) {
	if err := checkArgs(in, k); err != nil {
		return nil, err
	}
	ctx = orBG(ctx)
	seed := s.Seed
	if seed == nil {
		seed = LocalGreedy{Workers: 1}
	}
	maxPasses := s.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 10
	}
	col := in.Collector()
	init, err := seed.Run(ctx, in, k)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && init != nil {
			// Seed cancelled mid-run: its partial prefix is the best-so-far
			// solution. Re-commit it under this algorithm's name.
			return CancelRun(col, s.commit(ctx, in, init.Centers), cerr)
		}
		return nil, err
	}
	// The incremental evaluator re-scores a hypothetical swap in O(n)
	// instead of O(n·k), making each pass O(k·n²) total.
	eval, err := reward.NewEvaluator(in, init.Centers)
	if err != nil {
		return nil, err
	}
	best := eval.Objective()

	n := in.N()
	// Replace updates the fraction sums incrementally; every O(n) replaces
	// the accumulated IEEE drift is flushed with a full Resync so that swap
	// accept/reject decisions keep comparing against a trustworthy
	// objective (amortized O(k) extra work per replace).
	sinceResync := 0
	cancelled := false
sweep:
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		evals := 0
		for j := 0; j < eval.K(); j++ {
			// Check between slots: the evaluator's center set is a valid
			// (never worse than the seed) solution at every slot boundary.
			if ctx.Err() != nil {
				cancelled = true
				break sweep
			}
			// Best replacement for slot j among all data points.
			bestSwap := vec.V(nil)
			bestVal := best
			for i := 0; i < n; i++ {
				v, err := eval.ObjectiveIfReplaced(j, in.Set.Point(i))
				if err != nil {
					return nil, err
				}
				if v > bestVal+1e-12 {
					bestVal = v
					bestSwap = in.Set.Point(i)
				}
			}
			evals += n
			if bestSwap != nil {
				if err := eval.Replace(j, bestSwap); err != nil {
					return nil, err
				}
				best = bestVal
				improved = true
				if sinceResync++; sinceResync >= n {
					eval.Resync()
					best = eval.Objective()
					sinceResync = 0
				}
			}
		}
		if col != nil {
			col.Count(obs.CtrSwapPasses, 1)
			col.Count(obs.CtrSwapEvals, int64(evals))
			improvedF := 0.0
			if improved {
				improvedF = 1
			}
			col.Emit(obs.Event{Type: obs.EvSwapPass, Alg: s.Name(), Fields: map[string]float64{
				"pass":      float64(pass + 1),
				"improved":  improvedF,
				"objective": best,
			}})
		}
		if !improved {
			break
		}
	}
	res := s.commit(ctx, in, eval.Centers())
	if cancelled {
		return CancelRun(col, res, ctx.Err())
	}
	if res.Total < init.Total-1e-9 {
		return nil, errors.New("core: swap search regressed below its seed (internal error)")
	}
	return res, nil
}

// commit re-derives per-round gains by applying the centers in order under
// this algorithm's name (the shared tail of the normal and anytime exits).
func (s SwapLocalSearch) commit(ctx context.Context, in *reward.Instance, centers []vec.V) *Result {
	y := in.NewResiduals()
	res := &Result{Algorithm: s.Name()}
	for j, c := range centers {
		rs := startRound(ctx, in.Collector(), s.Name(), j+1)
		gain := in.ApplyRound(c, y)
		rs.commit(res, c.Clone(), gain, nil)
	}
	return res
}

var _ Algorithm = SwapLocalSearch{}
