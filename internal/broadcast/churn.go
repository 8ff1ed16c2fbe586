package broadcast

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/solver"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// ChurnConfig parameterizes the dynamic-instance re-solve loop: a base
// station whose user population churns (Poisson arrivals and departures)
// between broadcast periods, re-solved each period on an instance built from
// the population as it stands.
type ChurnConfig struct {
	// K is the number of broadcasts per period.
	K int
	// Radius is the content scope r.
	Radius float64
	// Norm measures interest distance (default 2-norm).
	Norm norm.Norm
	// Periods is the number of broadcast periods simulated.
	Periods int
	// ArrivalRate is the mean number of users joining per period
	// (Poisson-distributed). Arrivals take a uniform interest point inside
	// the trace box and inherit the weight of a random existing user.
	ArrivalRate float64
	// DepartRate is the mean number of users leaving per period
	// (Poisson-distributed, capped so the population never empties).
	DepartRate float64
	// Solver names the algorithm in the solver registry (default "greedy2").
	Solver string
	// Workers bounds the solver's parallelism; <= 0 uses all CPUs.
	Workers int
	// Seed drives churn and any solver randomness. Deterministic per seed.
	Seed uint64
	// WarmStart carries each period's centers into the next re-solve via
	// solver.Options.WarmStart: the re-solve keeps whichever of the cold
	// solution and the carried-over centers scores higher.
	WarmStart bool
	// Index selects the neighbour index of each period's instance: "none"
	// (the default, also spelled "") builds none, and "grid" builds the
	// radius-r grid where spatial.Prunes says it pays for itself
	// (reward.NewIndexed). It never changes a result bit.
	Index string
	// Obs, when set, receives the churn counters, one churn.period stage
	// per period and, through the instance it is attached to, the
	// reward-oracle counts and every period solve's telemetry, warm starts
	// included.
	Obs obs.Collector
	// OnPeriod, when non-nil, is invoked synchronously after each period's
	// stats are committed — the streaming hook the serving layer uses to
	// push per-period results to a client while the loop is still running.
	// It runs on the loop's goroutine, so a slow callback slows the loop.
	OnPeriod func(ChurnPeriodStat)
}

func (c ChurnConfig) validate() error {
	if c.K <= 0 {
		return fmt.Errorf("broadcast: K = %d", c.K)
	}
	if c.Radius <= 0 || math.IsNaN(c.Radius) || math.IsInf(c.Radius, 0) {
		return fmt.Errorf("broadcast: radius = %v", c.Radius)
	}
	if c.Periods <= 0 {
		return fmt.Errorf("broadcast: periods = %d", c.Periods)
	}
	if c.ArrivalRate < 0 || math.IsNaN(c.ArrivalRate) || math.IsInf(c.ArrivalRate, 0) {
		return fmt.Errorf("broadcast: arrival rate = %v", c.ArrivalRate)
	}
	if c.DepartRate < 0 || math.IsNaN(c.DepartRate) || math.IsInf(c.DepartRate, 0) {
		return fmt.Errorf("broadcast: depart rate = %v", c.DepartRate)
	}
	switch c.Index {
	case "", "none", "grid":
	default:
		return fmt.Errorf("broadcast: unknown index %q (have: none | grid)", c.Index)
	}
	return nil
}

// Validate checks the configuration without running the loop, including
// that the solver name resolves in the registry. The serving layer calls it
// before committing to a streamed response, so invalid configs still get a
// proper HTTP error instead of a mid-stream failure.
func (c ChurnConfig) Validate() error {
	if err := c.validate(); err != nil {
		return err
	}
	name := c.Solver
	if name == "" {
		name = "greedy2"
	}
	// solver.Check accepts the composite "sharded(<inner>)" form too, so a
	// churn loop can re-solve each period through the sharded pipeline.
	return solver.Check(name)
}

// ChurnPeriodStat records one period of the churn loop.
type ChurnPeriodStat struct {
	Period int
	// N is the population size the period was scheduled for.
	N int
	// Objective is f(C) of the adopted centers on the period's population.
	Objective float64
	// MaxRwd is Σ w_i, the period's reward upper bound.
	MaxRwd float64
	// CarryObjective is the previous centers' objective on this period's
	// (churned) population — the warm-start candidate's score. Zero for the
	// first period.
	CarryObjective float64
	// Arrivals and Departures are the churn applied after this period.
	Arrivals, Departures int
}

// ChurnMetrics summarizes a churn-loop run.
type ChurnMetrics struct {
	Solver  string
	Periods []ChurnPeriodStat
	// MeanSatisfaction is the mean over periods of f(C)/Σw.
	MeanSatisfaction float64
	// MeanPopulation is the mean scheduled population size.
	MeanPopulation float64
	// TotalArrivals / TotalDepartures count users over the whole run.
	TotalArrivals, TotalDepartures int
	// IncrementalDeltas counts the arrivals plus departures applied;
	// FullRebuilds counts the instances built, one per period.
	IncrementalDeltas, FullRebuilds int
}

// RunChurn simulates the base station over a churning population. The
// population is kept as plain slices: arrivals are appended and a departure
// swaps the last user into its slot. Each period solves an instance built
// from the population as it stands, indexed as reward.NewIndexed decides
// when cfg.Index is "grid", and with cfg.WarmStart each period's centers
// seed the next re-solve. The input trace is never mutated.
//
// RunChurn is anytime under cancellation: ctx is checked each period, a
// period whose solve was cut short is discarded, and metrics over the
// completed periods are returned together with ctx.Err().
func RunChurn(ctx context.Context, tr *trace.Trace, cfg ChurnConfig) (*ChurnMetrics, error) {
	if tr == nil {
		return nil, errors.New("broadcast: nil trace")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	solverName := cfg.Solver
	if solverName == "" {
		solverName = "greedy2"
	}
	m := &ChurnMetrics{Solver: solverName}
	set, err := tr.ToSet() // validates the trace
	if err != nil {
		return nil, err
	}
	// The population the churn evolves. Points() is a fresh slice, and a
	// Set is immutable, so sharing its point views is safe.
	pts := set.Points()
	ws := append([]float64(nil), set.Weights()...)

	rng := xrand.New(cfg.Seed)
	box := tr.Box()
	c := obs.OrNop(cfg.Obs)
	var prev []vec.V
	var popSum float64
	var cancelErr error

	for p := 0; p < cfg.Periods; p++ {
		if err := ctx.Err(); err != nil {
			cancelErr = err
			break
		}
		// Each period is a stage, a child of the caller's span when there is
		// one (the serving layer wraps each /v1/churn request in one).
		psp := obs.StartStage(ctx, cfg.Obs, obs.StageChurnPeriod)
		psp.SetAlg(solverName)
		psp.SetAttr("period", float64(p))
		var in *reward.Instance
		if cfg.Index == "grid" {
			in, err = reward.NewIndexed(set, orL2(cfg.Norm), cfg.Radius, cfg.Obs)
		} else if in, err = reward.NewInstance(set, orL2(cfg.Norm), cfg.Radius); err == nil {
			in.SetCollector(cfg.Obs)
		}
		if err != nil {
			psp.End()
			return nil, err
		}
		m.FullRebuilds++
		ps := ChurnPeriodStat{Period: p, N: in.N(), MaxRwd: set.TotalWeight()}
		if p > 0 {
			// The previous centers scored on the churned population: the
			// warm-start candidate.
			ps.CarryObjective = in.Objective(prev)
		}
		opts := solver.Options{Workers: cfg.Workers, Seed: cfg.Seed}
		if cfg.WarmStart {
			opts.WarmStart = prev
		}
		alg, err := solver.New(solverName, opts)
		if err != nil {
			psp.End()
			return nil, err
		}
		res, err := alg.Run(obs.ContextWithSpan(ctx, psp), in, cfg.K)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				psp.SetAttr("cancelled", 1)
				psp.End()
				cancelErr = cerr
				break
			}
			psp.End()
			return nil, fmt.Errorf("broadcast: churn period %d: %w", p, err)
		}
		ps.Objective = in.Objective(res.Centers)
		popSum += float64(in.N())
		prev = res.Centers

		// Churn the population the next period is built from.
		if p < cfg.Periods-1 {
			arrivals := rng.Poisson(cfg.ArrivalRate)
			departures := rng.Poisson(cfg.DepartRate)
			if max := len(pts) + arrivals - 1; departures > max {
				departures = max // never serve an empty cell
			}
			for a := 0; a < arrivals; a++ {
				w := ws[rng.Intn(len(ws))]
				pts = append(pts, vec.V(box.Sample(rng)))
				ws = append(ws, w)
			}
			for d := 0; d < departures; d++ {
				i, last := rng.Intn(len(pts)), len(pts)-1
				pts[i], ws[i] = pts[last], ws[last]
				pts, ws = pts[:last], ws[:last]
			}
			ps.Arrivals, ps.Departures = arrivals, departures
			m.TotalArrivals += arrivals
			m.TotalDepartures += departures
			m.IncrementalDeltas += arrivals + departures
			if set, err = pointset.New(pts, ws); err != nil {
				psp.End()
				return nil, fmt.Errorf("broadcast: churn period %d: %w", p, err)
			}
			if obs.Active(cfg.Obs) {
				c.Count(obs.CtrChurnAdded, int64(arrivals))
				c.Count(obs.CtrChurnRemoved, int64(departures))
				c.Count(obs.CtrChurnDeltas, int64(arrivals+departures))
			}
		}
		m.Periods = append(m.Periods, ps)
		if cfg.OnPeriod != nil {
			cfg.OnPeriod(ps)
		}
		psp.SetAttr("n", float64(ps.N))
		psp.SetAttr("objective", ps.Objective)
		psp.SetAttr("arrivals", float64(ps.Arrivals))
		psp.SetAttr("departures", float64(ps.Departures))
		psp.End()
		c.Count(obs.CtrChurnPeriods, 1)
	}

	if len(m.Periods) > 0 {
		var satSum float64
		for _, ps := range m.Periods {
			if ps.MaxRwd > 0 {
				satSum += ps.Objective / ps.MaxRwd
			}
		}
		m.MeanSatisfaction = satSum / float64(len(m.Periods))
		m.MeanPopulation = popSum / float64(len(m.Periods))
	}
	return m, cancelErr
}
