// Package sim runs repeated randomized trials in parallel and aggregates
// named metrics. Each trial receives its own deterministic RNG derived from
// the experiment seed and the trial index, so results are reproducible and
// independent of scheduling, worker count, and trial interleaving.
package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// TrialFunc runs one trial and returns named scalar observations. It must be
// safe to call concurrently with other trials. The context is the runner's:
// trial bodies that invoke solvers should pass it through so a cancelled
// run stops inside the trial, not just between trials.
type TrialFunc func(ctx context.Context, trial int, rng *xrand.Rand) (map[string]float64, error)

// Result aggregates per-metric summaries over all trials.
type Result struct {
	Trials    int
	Summaries map[string]stats.Summary
	// Samples holds the raw per-trial values in trial order.
	Samples map[string][]float64
}

// Mean returns the mean of a metric, or 0 with ok=false when absent.
func (r *Result) Mean(metric string) (float64, bool) {
	s, ok := r.Summaries[metric]
	if !ok {
		return 0, false
	}
	return s.Mean, true
}

// RunTrials executes fn for trial = 0..trials−1, spreading trials over
// workers (<= 0 uses all CPUs). Trial t's RNG is seeded with
// seed ⊕ splitmix(t), so every trial is reproducible in isolation. The first
// trial error aborts the aggregation.
//
// Cancellation is anytime at trial granularity: once ctx is done no new
// trial starts, trials whose own body returned ctx's error are dropped
// rather than treated as failures, and the completed trials are aggregated
// into a partial Result returned together with ctx.Err(). A run cancelled
// before any trial completed returns an empty Result (Trials == 0) with
// ctx.Err(). A nil ctx behaves like context.Background().
func RunTrials(ctx context.Context, trials, workers int, seed uint64, fn TrialFunc) (*Result, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sim: trials = %d must be positive", trials)
	}
	if fn == nil {
		return nil, errors.New("sim: nil trial function")
	}
	type out struct {
		ran     bool
		metrics map[string]float64
		err     error
	}
	outs := make([]out, trials)
	cancelErr := parallel.For(ctx, trials, workers, nil, func(t int) {
		rng := xrand.New(seed ^ (0x9e3779b97f4a7c15 * (uint64(t) + 1)))
		m, err := fn(ctx, t, rng)
		outs[t] = out{ran: true, metrics: m, err: err}
	})
	samples := map[string][]float64{}
	completed := 0
	for t, o := range outs {
		if !o.ran {
			continue // never dispatched before cancellation
		}
		if o.err != nil {
			if cancelErr != nil && errors.Is(o.err, cancelErr) {
				continue // the trial itself was cut short; drop its partial data
			}
			return nil, fmt.Errorf("sim: trial %d: %w", t, o.err)
		}
		completed++
		for k, v := range o.metrics {
			samples[k] = append(samples[k], v)
		}
	}
	res := &Result{Trials: completed, Summaries: map[string]stats.Summary{}, Samples: samples}
	for k, vs := range samples {
		s, err := stats.Summarize(vs)
		if err != nil {
			return nil, fmt.Errorf("sim: metric %q: %w", k, err)
		}
		res.Summaries[k] = s
	}
	return res, cancelErr
}
