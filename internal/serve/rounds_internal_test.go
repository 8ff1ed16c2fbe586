package serve

import (
	"testing"

	v1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vec"
)

// TestRoundsFromEventsFiltersByTrace is the regression test for the
// wall-time join: round_end events must be matched to the request by trace
// ID, not by round number alone. Before the fix, any round_end in the
// snapshot with a colliding round number — from another solve cross-wired
// into the collector — overwrote this request's wall times.
func TestRoundsFromEventsFiltersByTrace(t *testing.T) {
	res := &core.Result{
		Algorithm: "greedy2",
		Centers:   []vec.V{vec.Of(0, 0), vec.Of(1, 1)},
		Gains:     []float64{5, 3},
		Total:     8,
	}
	snap := obs.Snapshot{Events: []obs.Event{
		{Type: obs.EvRoundStart, Round: 1, Trace: "req-a"},
		{Type: obs.EvRoundEnd, Round: 1, Trace: "req-a", Fields: map[string]float64{"wall_ns": 100, "gain": 5}},
		{Type: obs.EvRoundEnd, Round: 2, Trace: "req-a", Fields: map[string]float64{"wall_ns": 200, "gain": 3}},
		// A foreign solve with colliding round numbers: same round indices,
		// different trace. These must not overwrite req-a's wall times.
		{Type: obs.EvRoundEnd, Round: 1, Trace: "req-b", Fields: map[string]float64{"wall_ns": 9000}},
		{Type: obs.EvRoundEnd, Round: 2, Trace: "req-b", Fields: map[string]float64{"wall_ns": 9000}},
		// Trace-less events (a solver run outside the serving layer sharing
		// the collector) are foreign too.
		{Type: obs.EvRoundEnd, Round: 1, Trace: "", Fields: map[string]float64{"wall_ns": 8000}},
		// Out-of-range rounds for this trace are ignored, not a panic.
		{Type: obs.EvRoundEnd, Round: 3, Trace: "req-a", Fields: map[string]float64{"wall_ns": 7000}},
		{Type: obs.EvRoundEnd, Round: 0, Trace: "req-a", Fields: map[string]float64{"wall_ns": 7000}},
	}}

	rounds := roundsFromEvents(res, snap, "req-a")
	if len(rounds) != 2 {
		t.Fatalf("got %d rounds, want 2", len(rounds))
	}
	want := []v1.Round{
		{Round: 1, Gain: 5, WallNS: 100},
		{Round: 2, Gain: 3, WallNS: 200},
	}
	for i, w := range want {
		if rounds[i] != w {
			t.Errorf("round %d = %+v, want %+v", i+1, rounds[i], w)
		}
	}

	// A different trace with no matching events keeps gains but zero wall
	// times — never another request's.
	for i, r := range roundsFromEvents(res, snap, "req-zzz") {
		if r.WallNS != 0 {
			t.Errorf("foreign trace adopted wall time %d on round %d", r.WallNS, i+1)
		}
	}
}
