package core

import (
	"context"
	"errors"

	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/vec"
)

// InnerSolver approximately solves the continuous per-round problem of the
// paper's Algorithm 1 (Eq. 10): maximize Σ_i w_i·min([1 − d(c, x_i)/r]_+,
// y_i) over c ∈ R^m. The paper proves this subproblem is itself NP-hard
// (§IV.B), so any practical solver is approximate; package optimize provides
// grid, pattern-search, and multistart implementations.
type InnerSolver interface {
	// Name is a short identifier for reporting.
	Name() string
	// Solve returns a center approximately maximizing the round gain
	// against the residuals y. It must not modify y or the instance.
	// Cancellation is cooperative: a solver may return early with a
	// lower-fidelity center or (nil, ctx.Err()); RoundBased discards the
	// whole round either way, so partial inner solutions never leak into
	// the committed prefix.
	Solve(ctx context.Context, in *reward.Instance, y []float64) (vec.V, error)
}

// RoundBased is the paper's Algorithm 1 ("greedy 1"): k rounds, each placing
// one center by (approximately) solving the continuous single-center
// problem, then discounting residuals. With an exact inner solver it attains
// the Theorem-1 ratio 1 − (1 − 1/k)^k ≥ 1 − 1/e.
//
// With a collector on the instance each continuous-solver invocation is an
// obs.StageInnerSolve stage inside its round.
type RoundBased struct {
	Solver InnerSolver
}

// Name implements Algorithm.
func (RoundBased) Name() string { return "greedy1" }

// Run implements Algorithm.
func (a RoundBased) Run(ctx context.Context, in *reward.Instance, k int) (*Result, error) {
	if err := checkArgs(in, k); err != nil {
		return nil, err
	}
	if a.Solver == nil {
		return nil, errors.New("core: RoundBased requires an InnerSolver")
	}
	ctx = orBG(ctx)
	y := in.NewResiduals()
	res := &Result{Algorithm: a.Name()}
	col := in.Collector()
	for j := 0; j < k; j++ {
		if err := ctx.Err(); err != nil {
			return CancelRun(col, res, err)
		}
		rs := startRound(ctx, col, a.Name(), j+1)
		st := obs.StartStage(obs.ContextWithSpan(ctx, rs.span), col, obs.StageInnerSolve)
		c, err := a.Solver.Solve(ctx, in, y)
		solveNS := st.End()
		if cerr := ctx.Err(); cerr != nil {
			// Cancelled mid-solve: the round's center is (at best) a
			// lower-fidelity answer from a truncated search. Discard the
			// round so the committed prefix stays bit-identical to an
			// uncancelled run's.
			return CancelRun(col, res, cerr)
		}
		if err != nil {
			return nil, err
		}
		gain := in.ApplyRound(c, y)
		rs.commit(res, c.Clone(), gain, map[string]float64{"solve_ns": float64(solveNS)})
	}
	return res, nil
}

var _ Algorithm = RoundBased{}
