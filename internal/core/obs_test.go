// Package core_test (external) because the instrumentation tests need
// package optimize for greedy1's inner solver, and optimize imports core.
package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/shard"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func obsInstance(t *testing.T, n int) *reward.Instance {
	t.Helper()
	set, err := pointset.GenUniform(n, pointset.PaperBox2D(), pointset.RandomIntWeight, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	in, err := reward.NewInstance(set, norm.L2{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// capture returns a Sink over a buffer and a function that flushes it and
// decodes every event it streamed.
func capture(t *testing.T) (*obs.Sink, func() []obs.Event) {
	t.Helper()
	var buf bytes.Buffer
	s := obs.NewSink(&buf)
	return s, func() []obs.Event {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		var out []obs.Event
		for dec := json.NewDecoder(&buf); dec.More(); {
			var e obs.Event
			if err := dec.Decode(&e); err != nil {
				t.Fatalf("sink line not an Event: %v", err)
			}
			out = append(out, e)
		}
		return out
	}
}

// roundEvents extracts the span_end events of alg's round stages in order.
func roundEvents(events []obs.Event, alg string) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if e.Type == obs.EvSpanEnd && e.Name == obs.StageRound && e.Alg == alg {
			out = append(out, e)
		}
	}
	return out
}

// TestInstrumentedAlgorithmsEmitRounds runs every algorithm that commits
// rounds on an instance with a live collector and checks the shared
// contract: k round stages whose span_end gains match Result.Gains, the
// rounds counter and as many core.round_ns samples, and unchanged results
// relative to the run without a collector. The swap's seed reports its own
// k rounds too; the two-part pipeline's part solves report none. greedy1's
// inner solves are stages inside their rounds.
func TestInstrumentedAlgorithmsEmitRounds(t *testing.T) {
	in := obsInstance(t, 30)
	const k = 3
	sharded := shard.NewSolver("greedy2-lazy", func(uint64) core.Algorithm { return core.LazyGreedy{} },
		shard.Options{Shards: 2})
	algs := []struct {
		alg    core.Algorithm
		rounds int64
	}{
		{core.RoundBased{Solver: optimize.Multistart{Workers: 1}}, k},
		{core.LocalGreedy{Workers: 1}, k},
		{core.LazyGreedy{}, k},
		{core.SimpleGreedy{}, k},
		{core.ComplexGreedy{Workers: 1}, k},
		{core.SwapLocalSearch{}, 2 * k},
		{core.NearLinear{}, k},
		{sharded, k},
	}
	for _, tc := range algs {
		bare := tc.alg
		t.Run(bare.Name(), func(t *testing.T) {
			plain, err := bare.Run(context.Background(), in, k)
			if err != nil {
				t.Fatal(err)
			}
			m := obs.NewMetrics()
			sink, events := capture(t)
			res, err := bare.Run(context.Background(), in.WithCollector(obs.Multi(m, sink)), k)
			if err != nil {
				t.Fatal(err)
			}
			if res.Total != plain.Total {
				t.Errorf("instrumentation changed the result: %v != %v", res.Total, plain.Total)
			}
			s := m.Snapshot()
			evs := events()
			rounds := roundEvents(evs, bare.Name())
			if len(rounds) != k {
				t.Fatalf("%d round stages, want %d", len(rounds), k)
			}
			roundIDs := map[string]bool{}
			for j, e := range rounds {
				roundIDs[e.Span] = true
				if e.Fields["round"] != float64(j+1) {
					t.Errorf("round %d stage numbered %v", j+1, e.Fields["round"])
				}
				if e.Fields["gain"] != res.Gains[j] {
					t.Errorf("round %d event gain %v != result gain %v", j+1, e.Fields["gain"], res.Gains[j])
				}
				if e.Fields["wall_ns"] < 0 {
					t.Errorf("round %d negative wall time", j+1)
				}
			}
			if s.Counters[obs.CtrRounds] != tc.rounds {
				t.Errorf("rounds counter = %d, want %d", s.Counters[obs.CtrRounds], tc.rounds)
			}
			if n := s.TimersNS[obs.StageRound+"_ns"].Count; int64(n) != tc.rounds {
				t.Errorf("%d core.round_ns samples, want %d", n, tc.rounds)
			}
			if _, ok := bare.(core.RoundBased); ok {
				inner := 0
				for _, e := range evs {
					if e.Type == obs.EvSpanEnd && e.Name == obs.StageInnerSolve {
						inner++
						if !roundIDs[e.Parent] {
							t.Errorf("inner solve %s parented by %q, not a round", e.Span, e.Parent)
						}
					}
				}
				if inner != k || s.TimersNS[obs.StageInnerSolve+"_ns"].Count != k {
					t.Errorf("%d inner-solve stages, %d core.inner_solve_ns samples, want %d",
						inner, s.TimersNS[obs.StageInnerSolve+"_ns"].Count, k)
				}
			}
			if _, ok := bare.(core.Pipeline); ok && s.Counters[obs.CtrShardParts] != 2 {
				t.Errorf("shard.parts = %d, want 2", s.Counters[obs.CtrShardParts])
			}
		})
	}
}

// TestLazyRepopsBelowFullScan checks the claim the telemetry exists to
// verify: LazyGreedy's evaluations after round 1 are fewer than
// LocalGreedy's full n-per-round rescans on a non-trivial instance.
func TestLazyRepopsBelowFullScan(t *testing.T) {
	in := obsInstance(t, 120)
	const k = 6
	m := obs.NewMetrics()
	in.SetCollector(m)
	if _, err := (core.LazyGreedy{}).Run(context.Background(), in, k); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	repops := s.Counters[obs.CtrLazyRepops]
	full := int64(120 * (k - 1)) // what LocalGreedy would re-evaluate after round 1
	if repops >= full {
		t.Errorf("lazy repops %d not below full rescan %d", repops, full)
	}
	// Total candidate evaluations = n (initial) + repops.
	if got := s.Counters[obs.CtrCandidates]; got != 120+repops {
		t.Errorf("candidates counter %d != n + repops %d", got, 120+repops)
	}
}

// TestInstrumentedInstanceCountsRewardEvals wires the collector into the
// instance and checks gain-evaluation accounting for greedy2: exactly n
// RoundGain calls per round plus one ApplyRound per round.
func TestInstrumentedInstanceCountsRewardEvals(t *testing.T) {
	in := obsInstance(t, 25)
	const k = 2
	m := obs.NewMetrics()
	in.SetCollector(m)
	if _, err := (core.LocalGreedy{Workers: 1}).Run(context.Background(), in, k); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if got := s.Counters[obs.CtrGainEvals]; got != 25*k {
		t.Errorf("gain evals = %d, want %d", got, 25*k)
	}
	if got := s.Counters[obs.CtrApplyRounds]; got != k {
		t.Errorf("apply rounds = %d, want %d", got, k)
	}
}

// TestComplexGreedySEBTelemetry checks that greedy4 reports its
// enclosing-ball constructions and walk steps.
func TestComplexGreedySEBTelemetry(t *testing.T) {
	in := obsInstance(t, 25)
	m := obs.NewMetrics()
	sink, events := capture(t)
	in.SetCollector(obs.Multi(m, sink))
	if _, err := (core.ComplexGreedy{Workers: 1}).Run(context.Background(), in, 2); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.Counters[obs.CtrSEBCalls] < 1 {
		t.Error("no SEB calls recorded")
	}
	if s.Histograms[obs.ObsSEBPoints].Count < 1 {
		t.Error("no SEB point-count samples recorded")
	}
	sawSEB := false
	for _, e := range events() {
		if e.Type == obs.EvSEB {
			sawSEB = true
			if e.Fields["points"] < 1 {
				t.Errorf("seb event without points field: %+v", e)
			}
			break
		}
	}
	if !sawSEB {
		t.Error("no seb events recorded")
	}
}

// TestSwapSeedReportsRounds: the swap runs its seed on the same instance,
// so the seed's rounds reach the instance's collector beside the swap's own
// gain re-derivation.
func TestSwapSeedReportsRounds(t *testing.T) {
	sink, events := capture(t)
	in := obsInstance(t, 20)
	in.SetCollector(sink)
	res, err := (core.SwapLocalSearch{Seed: core.LazyGreedy{}}).Run(context.Background(), in, 2)
	if err != nil {
		t.Fatal(err)
	}
	evs := events()
	if got := len(roundEvents(evs, "greedy2-lazy")); got != 2 {
		t.Errorf("%d seed round stages, want 2", got)
	}
	if got := len(roundEvents(evs, res.Algorithm)); got != 2 {
		t.Errorf("%d swap round stages, want 2", got)
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
}

// TestValidateToleranceBoundary pins the shared core.SumTolerance constant: a
// discrepancy just inside it passes, just outside fails.
func TestValidateToleranceBoundary(t *testing.T) {
	mk := func(totalDelta float64) *core.Result {
		return &core.Result{
			Algorithm: "x",
			Centers:   []vec.V{vec.Of(0, 0), vec.Of(1, 1)},
			Gains:     []float64{1, 2},
			Total:     3 + totalDelta,
		}
	}
	if err := mk(core.SumTolerance / 2).Validate(); err != nil {
		t.Errorf("delta inside tolerance rejected: %v", err)
	}
	if err := mk(-core.SumTolerance / 2).Validate(); err != nil {
		t.Errorf("negative delta inside tolerance rejected: %v", err)
	}
	if err := mk(core.SumTolerance * 2).Validate(); err == nil {
		t.Error("delta outside tolerance accepted")
	}
	if err := mk(-core.SumTolerance * 2).Validate(); err == nil {
		t.Error("negative delta outside tolerance accepted")
	}
}
