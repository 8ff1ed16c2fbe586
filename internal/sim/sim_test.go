package sim

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

func TestRunTrialsAggregates(t *testing.T) {
	res, err := RunTrials(context.Background(), 10, 4, 1, func(_ context.Context, trial int, rng *xrand.Rand) (map[string]float64, error) {
		return map[string]float64{
			"trial": float64(trial),
			"const": 3,
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 10 {
		t.Fatalf("Trials = %d", res.Trials)
	}
	if m, ok := res.Mean("trial"); !ok || m != 4.5 {
		t.Errorf("mean trial = %v, %v", m, ok)
	}
	if m, ok := res.Mean("const"); !ok || m != 3 {
		t.Errorf("mean const = %v", m)
	}
	if _, ok := res.Mean("missing"); ok {
		t.Error("missing metric found")
	}
	if len(res.Summaries) != 2 {
		t.Errorf("summaries = %v, want const and trial", res.Summaries)
	}
	// Samples preserved in trial order.
	if res.Samples["trial"][3] != 3 {
		t.Errorf("samples out of order: %v", res.Samples["trial"])
	}
}

func TestRunTrialsDeterministicAcrossWorkers(t *testing.T) {
	fn := func(_ context.Context, trial int, rng *xrand.Rand) (map[string]float64, error) {
		return map[string]float64{"x": rng.Float64()}, nil
	}
	a, err := RunTrials(context.Background(), 20, 1, 99, fn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrials(context.Background(), 20, 8, 99, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples["x"] {
		if a.Samples["x"][i] != b.Samples["x"][i] {
			t.Fatalf("trial %d differs across worker counts", i)
		}
	}
}

func TestRunTrialsDistinctSeedsPerTrial(t *testing.T) {
	res, err := RunTrials(context.Background(), 50, 4, 7, func(_ context.Context, trial int, rng *xrand.Rand) (map[string]float64, error) {
		return map[string]float64{"x": rng.Float64()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for _, v := range res.Samples["x"] {
		if seen[v] {
			t.Fatal("two trials drew identical values: RNGs correlated")
		}
		seen[v] = true
	}
}

func TestRunTrialsErrors(t *testing.T) {
	if _, err := RunTrials(context.Background(), 0, 1, 1, func(context.Context, int, *xrand.Rand) (map[string]float64, error) { return nil, nil }); err == nil {
		t.Error("trials=0 accepted")
	}
	if _, err := RunTrials(context.Background(), 3, 1, 1, nil); err == nil {
		t.Error("nil fn accepted")
	}
	boom := errors.New("boom")
	if _, err := RunTrials(context.Background(), 5, 2, 1, func(_ context.Context, trial int, _ *xrand.Rand) (map[string]float64, error) {
		if trial == 3 {
			return nil, boom
		}
		return map[string]float64{"x": 1}, nil
	}); err == nil || !errors.Is(err, boom) {
		t.Errorf("trial error not propagated: %v", err)
	}
	if _, err := RunTrials(context.Background(), 2, 1, 1, func(context.Context, int, *xrand.Rand) (map[string]float64, error) {
		return map[string]float64{"bad": math.NaN()}, nil
	}); err == nil {
		t.Error("NaN metric accepted")
	}
}

// TestRunTrialsMidflightCancellation cancels the run from inside a trial
// body while workers are mid-flight, then checks the partial Result's
// integrity: Samples stay in ascending trial order with no holes from
// dropped trials, Trials matches the aggregated sample count, and the
// summaries agree. Run under -race this also exercises the outs-slice
// hand-off between workers and the aggregator.
func TestRunTrialsMidflightCancellation(t *testing.T) {
	const trials = 60
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int64
	res, err := RunTrials(ctx, trials, 4, 9, func(ctx context.Context, trial int, _ *xrand.Rand) (map[string]float64, error) {
		if completed.Add(1) == 12 {
			cancel()
		}
		if err := ctx.Err(); err != nil {
			return nil, err // cut short: RunTrials must drop, not fail
		}
		return map[string]float64{"trial": float64(trial)}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("nil partial result")
	}
	if res.Trials == 0 || res.Trials >= trials {
		t.Fatalf("Trials = %d, want a genuine partial run", res.Trials)
	}
	got := res.Samples["trial"]
	if len(got) != res.Trials {
		t.Fatalf("%d samples for %d trials", len(got), res.Trials)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("samples out of trial order at %d: %v", i, got)
		}
	}
	for _, v := range got {
		if v != math.Trunc(v) || v < 0 || v >= trials {
			t.Fatalf("sample %v is not a trial index", v)
		}
	}
	if s, ok := res.Summaries["trial"]; !ok || s.N != res.Trials {
		t.Fatalf("summary N = %d, want %d", s.N, res.Trials)
	}
}
