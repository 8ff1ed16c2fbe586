// Package core implements the paper's primary contribution: the four
// heuristics for the optimal content-distribution problem.
//
//   - RoundBased  — Algorithm 1, "greedy 1": each round approximately solves
//     the continuous single-center problem (Eq. 10) with a pluggable solver.
//   - LocalGreedy — Algorithm 2, "greedy 2": each round picks the data point
//     maximizing the coverage reward (Eq. 13). O(kn²).
//   - SimpleGreedy — Algorithm 3, "greedy 3": each round centers on the point
//     with the largest remaining single-point reward w_i·y_i (Eq. 14). O(kn).
//   - ComplexGreedy — Algorithm 4, "greedy 4": grows a disk from every seed
//     point by smallest-enclosing-ball re-centering and keeps the best
//     resulting center, which may lie anywhere in space (Eq. 15). O(kn³).
//
// All algorithms share the residual bookkeeping of package reward and return
// a Result carrying the per-round gains g(j) that the paper's Table I
// reports.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/vec"
)

// SumTolerance is the absolute tolerance used when comparing a sum of
// per-round gains against a stored total. k rounds of IEEE summation over
// well-scaled gains drift far less than this; a larger discrepancy means a
// bookkeeping bug, not float error.
const SumTolerance = 1e-6

// Result is the outcome of running an algorithm: the k selected centers in
// selection order, the per-round gains g(1..k), and their sum (the achieved
// objective value f).
type Result struct {
	Algorithm string
	Centers   []vec.V
	Gains     []float64
	Total     float64
	// RoundNS is the wall time of each committed round, parallel to Gains.
	// Algorithms that commit rounds one at a time fill it whether or not a
	// collector is attached; results not built round by round (exhaustive
	// search, fixed placements, an adopted warm start) leave it empty.
	RoundNS []int64
}

// PrefixTotals returns the cumulative objective after each round: element
// j−1 is the total reward of the first j centers. Because every algorithm
// here is incremental (round j never revises rounds 1..j−1), one Run at
// k = K yields the results for every smaller k as a prefix — the k-sweep
// experiments exploit this instead of re-running per k.
func (r *Result) PrefixTotals() []float64 {
	out := make([]float64, len(r.Gains))
	var sum float64
	for j, g := range r.Gains {
		sum += g
		out[j] = sum
	}
	return out
}

// Validate checks internal consistency (matching lengths, gain sum).
func (r *Result) Validate() error {
	if len(r.Centers) != len(r.Gains) {
		return fmt.Errorf("core: %d centers but %d gains", len(r.Centers), len(r.Gains))
	}
	var s float64
	for _, g := range r.Gains {
		if g < 0 {
			return fmt.Errorf("core: negative round gain %v", g)
		}
		s += g
	}
	if diff := s - r.Total; diff > SumTolerance || diff < -SumTolerance {
		return fmt.Errorf("core: gain sum %v != total %v", s, r.Total)
	}
	return nil
}

// Algorithm is a content-distribution heuristic: it selects k broadcast
// centers for the instance and reports the per-round gains.
//
// Run is anytime under cancellation: when ctx is cancelled or its deadline
// expires, implementations stop within one round boundary and return the
// best-so-far partial Result — a valid prefix of the centers an uncancelled
// run would have selected, bit-for-bit, with Validate() passing — together
// with ctx.Err(). A partially scanned round is discarded, never committed.
// Callers therefore must inspect the Result even when err is non-nil if
// they want the anytime answer. A nil ctx behaves like context.Background().
type Algorithm interface {
	// Name is a short identifier such as "greedy2".
	Name() string
	// Run selects k centers. Implementations must not mutate the instance.
	Run(ctx context.Context, in *reward.Instance, k int) (*Result, error)
}

// ErrNilInstance is returned when Run receives a nil instance.
var ErrNilInstance = errors.New("core: nil instance")

// orBG normalizes a nil context so implementations can call ctx.Err()
// unconditionally.
func orBG(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// CancelRun finalizes an anytime early return: it records the cancelled
// lifecycle event (obs.EvCancelled with the completed-round count) and hands
// back the partial result with the context's error. res always holds a
// valid prefix of completed rounds when this is called. Every algorithm,
// the exhaustive baseline included, ends a cancelled run here.
func CancelRun(c obs.Collector, res *Result, err error) (*Result, error) {
	if obs.Active(c) {
		c.Count(obs.CtrCancelled, 1)
		c.Emit(obs.Event{Type: obs.EvCancelled, Alg: res.Algorithm, Round: len(res.Gains),
			Fields: map[string]float64{"rounds": float64(len(res.Gains))}})
	}
	return res, err
}

// roundScope times one round. Every round reads the clock on entry and on
// commit, so Result.RoundNS is filled with or without a collector. With a
// live collector the round is an obs.StageRound stage, a child of the
// context's span when it carries one (the serving layer installs one around
// each solve, so a served request yields a request → serve.solve →
// core.round tree): its span_end carries the algorithm, the round, its gain
// and any extra fields, and its End records core.round_ns. Committed rounds
// also count core.rounds.
type roundScope struct {
	c     obs.Collector
	start time.Time
	span  *obs.Span
}

// startRound opens a round scope. With an inactive collector it only reads
// the clock.
func startRound(ctx context.Context, c obs.Collector, alg string, round int) roundScope {
	sp := obs.StartStage(ctx, c, obs.StageRound)
	if sp == nil {
		return roundScope{start: time.Now()}
	}
	sp.SetAlg(alg)
	sp.SetAttr("round", float64(round))
	return roundScope{c: c, span: sp}
}

// active reports whether the scope carries a live collector.
func (rs roundScope) active() bool { return rs.c != nil }

// commit closes the scope: it appends the round's center, gain, and wall
// time to res and, with a live collector, ends the round's stage with the
// gain and any extra fields as attributes (extra may be nil; it is not
// retained). A round cancelled mid-scan never reaches commit; its span is
// left open, which the trace shows as a span_start without a span_end.
func (rs roundScope) commit(res *Result, c vec.V, gain float64, extra map[string]float64) {
	var ns int64
	if rs.span == nil {
		ns = time.Since(rs.start).Nanoseconds()
	} else {
		rs.span.SetAttr("gain", gain)
		for k, v := range extra {
			rs.span.SetAttr(k, v)
		}
		ns = rs.span.End()
		rs.c.Count(obs.CtrRounds, 1)
	}
	res.Centers = append(res.Centers, c)
	res.Gains = append(res.Gains, gain)
	res.RoundNS = append(res.RoundNS, ns)
	res.Total += gain
}

// checkArgs validates the shared Run preconditions.
func checkArgs(in *reward.Instance, k int) error {
	if in == nil {
		return ErrNilInstance
	}
	if k <= 0 {
		return fmt.Errorf("core: k = %d must be positive", k)
	}
	return nil
}
