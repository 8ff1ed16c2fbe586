package broadcast

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/solver"
	"repro/internal/trace"
)

func churnCfg() ChurnConfig {
	return ChurnConfig{
		K: 2, Radius: 1.5, Periods: 6, Seed: 7,
		ArrivalRate: 3, DepartRate: 2,
	}
}

// TestRunChurnBasic: the loop completes, churn actually happens, each
// period builds one instance, and the summary fields are consistent.
func TestRunChurnBasic(t *testing.T) {
	for _, index := range []string{"none", "grid"} {
		t.Run(index, func(t *testing.T) {
			tr := genTrace(t, 30, trace.Uniform)
			cfg := churnCfg()
			cfg.Index = index
			m, err := RunChurn(context.Background(), tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Periods) != cfg.Periods {
				t.Fatalf("completed %d periods, want %d", len(m.Periods), cfg.Periods)
			}
			if m.TotalArrivals+m.TotalDepartures == 0 {
				t.Error("no churn happened at these rates")
			}
			if m.FullRebuilds != cfg.Periods {
				t.Errorf("built %d instances over %d periods", m.FullRebuilds, cfg.Periods)
			}
			if m.IncrementalDeltas != m.TotalArrivals+m.TotalDepartures {
				t.Errorf("deltas %d != arrivals %d + departures %d",
					m.IncrementalDeltas, m.TotalArrivals, m.TotalDepartures)
			}
			if m.MeanSatisfaction <= 0 || m.MeanSatisfaction > 1 {
				t.Errorf("mean satisfaction = %v", m.MeanSatisfaction)
			}
			for _, ps := range m.Periods[1:] {
				if ps.CarryObjective <= 0 {
					t.Errorf("period %d: carry objective %v", ps.Period, ps.CarryObjective)
				}
			}
		})
	}
}

// TestRunChurnOnPeriodStreams: the OnPeriod hook fires once per committed
// period, in order, with exactly the stats the final metrics carry — the
// contract the serving layer's chunked per-period stream relies on.
func TestRunChurnOnPeriodStreams(t *testing.T) {
	tr := genTrace(t, 25, trace.Uniform)
	cfg := churnCfg()
	var streamed []ChurnPeriodStat
	cfg.OnPeriod = func(ps ChurnPeriodStat) { streamed = append(streamed, ps) }
	m, err := RunChurn(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(m.Periods) {
		t.Fatalf("streamed %d periods, metrics have %d", len(streamed), len(m.Periods))
	}
	for i, ps := range m.Periods {
		if streamed[i] != ps {
			t.Errorf("period %d: streamed %+v != committed %+v", i, streamed[i], ps)
		}
	}
}

// TestRunChurnDoesNotMutateInput: the trace's population must be copied.
func TestRunChurnDoesNotMutateInput(t *testing.T) {
	tr := genTrace(t, 20, trace.Uniform)
	before := len(tr.Users)
	w0 := tr.Users[0].Weight
	if _, err := RunChurn(context.Background(), tr, churnCfg()); err != nil {
		t.Fatal(err)
	}
	if len(tr.Users) != before || tr.Users[0].Weight != w0 {
		t.Error("RunChurn mutated the input trace")
	}
}

// TestRunChurnWarmStartNeverWorse: with warm starting, every period's
// adopted objective must be at least the carried-over candidate's score —
// the WarmStarted wrapper keeps the better of the two by construction.
func TestRunChurnWarmStartNeverWorse(t *testing.T) {
	tr := genTrace(t, 40, trace.Uniform)
	cfg := churnCfg()
	cfg.WarmStart = true
	cfg.Index = "grid"
	c := obs.NewMetrics()
	cfg.Obs = c
	m, err := RunChurn(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range m.Periods {
		if ps.Objective < ps.CarryObjective {
			t.Errorf("period %d: objective %v < carried-over %v",
				ps.Period, ps.Objective, ps.CarryObjective)
		}
	}
	snap := c.Snapshot()
	if got := snap.Counters[obs.CtrWarmStarts]; got != int64(cfg.Periods-1) {
		t.Errorf("warm starts = %d, want %d", got, cfg.Periods-1)
	}
	if snap.Counters[obs.CtrChurnPeriods] != int64(cfg.Periods) {
		t.Errorf("churn periods = %d", snap.Counters[obs.CtrChurnPeriods])
	}
	if snap.Counters[obs.CtrChurnAdded] != int64(m.TotalArrivals) {
		t.Errorf("counter added %d != metric %d",
			snap.Counters[obs.CtrChurnAdded], m.TotalArrivals)
	}
	if snap.Counters[obs.CtrChurnRemoved] != int64(m.TotalDepartures) {
		t.Errorf("counter removed %d != metric %d",
			snap.Counters[obs.CtrChurnRemoved], m.TotalDepartures)
	}
}

// TestRunChurnDeterminism: same seed, same run, across index choices and
// solvers. The index is a conservative accelerator and the sharded pipeline
// and nearlinear share a grid index, so no choice may change a bit of any
// period's stats.
func TestRunChurnDeterminism(t *testing.T) {
	tr := genTrace(t, 60, trace.Uniform)
	for _, alg := range []string{"greedy2", "greedy2-lazy", "nearlinear", "sharded(greedy2-lazy)"} {
		t.Run(alg, func(t *testing.T) {
			var want *ChurnMetrics
			for _, index := range []string{"none", "grid"} {
				cfg := churnCfg()
				cfg.K, cfg.Radius, cfg.Solver, cfg.Index, cfg.WarmStart = 3, 0.8, alg, index, true
				got, err := RunChurn(context.Background(), tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				if len(got.Periods) != len(want.Periods) {
					t.Fatalf("%s: %d periods, none ran %d", index, len(got.Periods), len(want.Periods))
				}
				for p := range got.Periods {
					if got.Periods[p] != want.Periods[p] {
						t.Errorf("%s period %d: %+v != none's %+v", index, p, got.Periods[p], want.Periods[p])
					}
				}
			}
		})
	}
}

// TestRunChurnPopulationPinned: each period's population size, arrivals,
// departures and Σw equal the values an earlier implementation, which
// mutated one point set in place, recorded for the same runs. Only the
// churn's random draws decide these numbers, and the weights are integers,
// so the pin holds the order of the draws (the inherited weight's index,
// then the arrival's point; each departure's index) without float bits
// that may differ by platform.
func TestRunChurnPopulationPinned(t *testing.T) {
	type pop struct {
		n, arrivals, departures int
		maxRwd                  float64
	}
	tr := genTrace(t, 30, trace.Uniform)
	for _, tc := range []struct {
		seed uint64
		want []pop
	}{
		{7, []pop{{30, 1, 3, 99}, {28, 8, 0, 95}, {36, 6, 2, 120}, {40, 2, 3, 143}, {39, 4, 4, 139}, {39, 0, 0, 138}}},
		{19, []pop{{30, 2, 0, 99}, {32, 8, 2, 104}, {38, 4, 0, 124}, {42, 2, 0, 136}, {44, 3, 1, 141}, {46, 0, 0, 147}}},
	} {
		cfg := churnCfg()
		cfg.Seed = tc.seed
		m, err := RunChurn(context.Background(), tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Periods) != len(tc.want) {
			t.Fatalf("seed %d: %d periods, want %d", tc.seed, len(m.Periods), len(tc.want))
		}
		for p, ps := range m.Periods {
			if got := (pop{ps.N, ps.Arrivals, ps.Departures, ps.MaxRwd}); got != tc.want[p] {
				t.Errorf("seed %d period %d: %+v, want %+v", tc.seed, p, got, tc.want[p])
			}
		}
	}
}

// TestRunChurnCancellation: a cancelled run returns the completed periods
// with ctx.Err(), per the anytime contract.
func TestRunChurnCancellation(t *testing.T) {
	tr := genTrace(t, 20, trace.Uniform)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := RunChurn(ctx, tr, churnCfg())
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(m.Periods) != 0 {
		t.Errorf("pre-cancelled run completed %d periods", len(m.Periods))
	}
}

func TestRunChurnValidation(t *testing.T) {
	tr := genTrace(t, 10, trace.Uniform)
	run := func(mut func(*ChurnConfig)) error {
		cfg := churnCfg()
		mut(&cfg)
		_, err := RunChurn(context.Background(), tr, cfg)
		return err
	}
	if _, err := RunChurn(context.Background(), nil, churnCfg()); err == nil {
		t.Error("nil trace accepted")
	}
	for name, mut := range map[string]func(*ChurnConfig){
		"k":       func(c *ChurnConfig) { c.K = 0 },
		"radius":  func(c *ChurnConfig) { c.Radius = -1 },
		"periods": func(c *ChurnConfig) { c.Periods = 0 },
		"arrival": func(c *ChurnConfig) { c.ArrivalRate = -1 },
		"depart":  func(c *ChurnConfig) { c.DepartRate = -1 },
		"index":   func(c *ChurnConfig) { c.Index = "quadtree" },
		"kdtree":  func(c *ChurnConfig) { c.Index = "kdtree" },
		"solver":  func(c *ChurnConfig) { c.Solver = "no-such-algorithm" },
	} {
		if err := run(mut); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// finderSpy is greedy2 registered as "test-finder-spy": it records every
// instance it solves, so a test can read the index the churn loop built.
type finderSpy struct{ core.LocalGreedy }

var spied []*reward.Instance

func (s finderSpy) Run(ctx context.Context, in *reward.Instance, k int) (*core.Result, error) {
	spied = append(spied, in)
	return s.LocalGreedy.Run(ctx, in, k)
}

func init() {
	if err := solver.Register(solver.Entry{Name: "test-finder-spy", Summary: "test: greedy2 that records its instances",
		New: func(solver.Options) core.Algorithm { return finderSpy{} }}); err != nil {
		panic(err)
	}
}

// TestRunChurnIndexesEveryPeriod: with Index "grid", every period's
// instance is indexed as reward.NewIndexed decides: a radius-r grid over
// its population at 400 users and r = 0.5, where spatial.Prunes holds, and
// no finder at 30 users, where it does not. Unset or "none", no period
// carries a finder.
func TestRunChurnIndexesEveryPeriod(t *testing.T) {
	for _, c := range []struct {
		n       int
		r       float64
		indexed bool
	}{{400, 0.5, true}, {30, 1.5, false}} {
		tr := genTrace(t, c.n, trace.Uniform)
		for _, index := range []string{"", "grid", "none"} {
			spied = nil
			cfg := churnCfg()
			cfg.Radius, cfg.Solver, cfg.Index = c.r, "test-finder-spy", index
			if _, err := RunChurn(context.Background(), tr, cfg); err != nil {
				t.Fatal(err)
			}
			if len(spied) != cfg.Periods {
				t.Fatalf("%d users, index %q: solved %d instances over %d periods", c.n, index, len(spied), cfg.Periods)
			}
			for p, in := range spied {
				if index == "grid" && c.indexed {
					assertGrid(t, in)
				} else if f := in.Finder(); f != nil {
					t.Errorf("%d users, index %q, period %d: finder %T, want none", c.n, index, p, f)
				}
			}
		}
	}
}
