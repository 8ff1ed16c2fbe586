// Package broadcast realizes the system the paper motivates (§I, Fig. 1): a
// base station that can broadcast only k contents per period to n users,
// choosing contents so that users whose interests are close to a broadcast
// are satisfied. It runs any core.Algorithm once per period in a
// time-slotted simulator with interest drift and user churn, and reports
// satisfaction, fairness, and the k-versus-service-frequency tradeoff the
// paper notes in §III.A ("a larger value of k tends to have a higher
// average of satisfiability, but it will also have less frequent
// service").
package broadcast

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// Config parameterizes a simulation run.
type Config struct {
	// K is the number of broadcasts per period.
	K int
	// Radius is the content scope r.
	Radius float64
	// Norm measures interest distance (default 2-norm).
	Norm norm.Norm
	// Periods is the number of broadcast periods simulated.
	Periods int
	// DriftSigma perturbs every interest by a Gaussian step between
	// periods (0 disables drift).
	DriftSigma float64
	// ChurnRate is the per-period probability that a user departs and is
	// replaced by a fresh uniform arrival (0 disables churn; population
	// size is preserved).
	ChurnRate float64
	// ArrivalRate is the mean number of brand-new users joining per
	// period (Poisson-distributed; 0 disables arrivals). Arrivals take a
	// uniform interest point and inherit the weight of a random existing
	// user, preserving the weight distribution.
	ArrivalRate float64
	// DepartRate is the per-period probability that a user leaves without
	// replacement (0 disables departures). The population never drops
	// below one user.
	DepartRate float64
	// SlotsPerPeriod is the broadcast slot budget; each content consumes
	// one slot, so service frequency is SlotsPerPeriod/K (default: K, i.e.
	// the station spends the whole period broadcasting).
	SlotsPerPeriod int
	// Seed drives drift and churn.
	Seed uint64
	// Obs, when set, is attached to every period's instance, so it
	// receives the reward-oracle counts (gain/apply/objective evaluations)
	// and the telemetry of the algorithm run on it.
	Obs obs.Collector
}

func (c Config) validate() error {
	if c.K <= 0 {
		return fmt.Errorf("broadcast: K = %d", c.K)
	}
	if c.Radius <= 0 || math.IsNaN(c.Radius) || math.IsInf(c.Radius, 0) {
		return fmt.Errorf("broadcast: radius = %v", c.Radius)
	}
	if c.Periods <= 0 {
		return fmt.Errorf("broadcast: periods = %d", c.Periods)
	}
	if c.DriftSigma < 0 || c.ChurnRate < 0 || c.ChurnRate > 1 {
		return fmt.Errorf("broadcast: drift = %v churn = %v", c.DriftSigma, c.ChurnRate)
	}
	if c.ArrivalRate < 0 || math.IsNaN(c.ArrivalRate) || math.IsInf(c.ArrivalRate, 0) {
		return fmt.Errorf("broadcast: arrival rate = %v", c.ArrivalRate)
	}
	if c.DepartRate < 0 || c.DepartRate > 1 {
		return fmt.Errorf("broadcast: depart rate = %v", c.DepartRate)
	}
	return nil
}

// PeriodStat records one period's outcome.
type PeriodStat struct {
	Period  int
	Reward  float64 // total capped reward f(C) this period
	MaxRwd  float64 // Σ w_i this period (upper bound)
	Centers []vec.V
}

// Metrics summarizes a simulation.
type Metrics struct {
	Algorithm string
	Periods   []PeriodStat
	// MeanSatisfaction is the mean over periods of f(C)/Σw — the fraction
	// of achievable happiness delivered.
	MeanSatisfaction float64
	// Fairness is Jain's index over per-user cumulative satisfaction.
	Fairness float64
	// ServiceFrequency is how many full broadcast rounds fit in a period's
	// slot budget (SlotsPerPeriod / K); the paper's freshness tradeoff.
	ServiceFrequency float64
	// SatisfactionPerSlot = MeanSatisfaction / K: the efficiency of each
	// broadcast slot, which falls as K grows past interest saturation.
	SatisfactionPerSlot float64
	// UserSatisfaction holds each user's mean per-period satisfaction
	// fraction, ascending — the distribution behind the Jain index.
	UserSatisfaction []float64
}

// Run simulates the base station over the trace's population. The input
// trace is not modified; the population evolves on a private copy, served
// as given in period 0 and evolved once before each later period: drift,
// replacement, departures, then arrivals.
//
// Run is anytime under cancellation: ctx is checked between periods, a
// period whose solve was cut short is discarded, and the metrics aggregated
// over the completed periods are returned together with ctx.Err(). A nil
// ctx behaves like context.Background().
func Run(ctx context.Context, tr *trace.Trace, alg core.Algorithm, cfg Config) (*Metrics, error) {
	if tr == nil {
		return nil, errors.New("broadcast: nil trace")
	}
	if alg == nil {
		return nil, errors.New("broadcast: nil algorithm")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}

	// Private evolving copy of the population.
	cur := &trace.Trace{Dim: tr.Dim, Lo: append([]float64{}, tr.Lo...), Hi: append([]float64{}, tr.Hi...)}
	cur.Users = make([]trace.User, len(tr.Users))
	for i, u := range tr.Users {
		cur.Users[i] = trace.User{ID: u.ID, Interest: append([]float64{}, u.Interest...), Weight: u.Weight}
	}
	rng := xrand.New(cfg.Seed)
	box := cur.Box()
	nextID := 0
	for _, u := range cur.Users {
		if u.ID >= nextID {
			nextID = u.ID + 1
		}
	}
	return runPeriods(ctx, alg, cfg, func(p int) (*trace.Trace, error) {
		if p == 0 {
			return cur, nil
		}
		if cfg.DriftSigma > 0 {
			if err := trace.Drift(cur, cfg.DriftSigma, rng); err != nil {
				return nil, err
			}
		}
		if cfg.ChurnRate > 0 {
			for i := range cur.Users {
				if rng.Bernoulli(cfg.ChurnRate) {
					cur.Users[i] = trace.User{
						ID:       nextID,
						Interest: append([]float64{}, box.Sample(rng)...),
						Weight:   cur.Users[i].Weight,
					}
					nextID++
				}
			}
		}
		if cfg.DepartRate > 0 {
			kept := cur.Users[:0]
			for _, u := range cur.Users {
				if !rng.Bernoulli(cfg.DepartRate) {
					kept = append(kept, u)
				}
			}
			if len(kept) == 0 {
				kept = cur.Users[:1] // never serve an empty cell
			}
			cur.Users = kept
		}
		if cfg.ArrivalRate > 0 {
			arrivals := rng.Poisson(cfg.ArrivalRate)
			for a := 0; a < arrivals; a++ {
				w := cur.Users[rng.Intn(len(cur.Users))].Weight
				cur.Users = append(cur.Users, trace.User{
					ID:       nextID,
					Interest: append([]float64{}, box.Sample(rng)...),
					Weight:   w,
				})
				nextID++
			}
		}
		return cur, nil
	})
}

// runPeriods is the station's period loop, shared by Run and RunTimeline.
// For each period p below cfg.Periods it builds the instance of
// population(p) (reward.NewIndexed), runs alg on it, scores the centers,
// and credits each user's satisfaction. A nil ctx behaves like
// context.Background().
func runPeriods(ctx context.Context, alg core.Algorithm, cfg Config, population func(p int) (*trace.Trace, error)) (*Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	slots := cfg.SlotsPerPeriod
	if slots <= 0 {
		slots = cfg.K
	}
	m := &Metrics{Algorithm: alg.Name()}
	perUser := map[int]*userAccount{}
	var cancelErr error
	for p := 0; p < cfg.Periods; p++ {
		if err := ctx.Err(); err != nil {
			cancelErr = err
			break
		}
		pop, err := population(p)
		if err != nil {
			return nil, err
		}
		set, err := pop.ToSet()
		if err != nil {
			return nil, err
		}
		in, err := reward.NewIndexed(set, orL2(cfg.Norm), cfg.Radius, cfg.Obs)
		if err != nil {
			return nil, err
		}
		res, err := alg.Run(ctx, in, cfg.K)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				// The period's solve was cut short; discard it and keep the
				// completed periods as the anytime answer.
				cancelErr = cerr
				break
			}
			return nil, fmt.Errorf("broadcast: period %d: %w", p, err)
		}
		centers := res.Centers
		f := in.Objective(centers)
		m.Periods = append(m.Periods, PeriodStat{
			Period: p, Reward: f, MaxRwd: set.TotalWeight(), Centers: centers,
		})
		// Per-user accounting for fairness.
		for i, u := range pop.Users {
			var frac float64
			for _, c := range centers {
				frac += in.Coverage(c, i)
			}
			if frac > 1 {
				frac = 1
			}
			acct := perUser[u.ID]
			if acct == nil {
				acct = &userAccount{}
				perUser[u.ID] = acct
			}
			acct.satisfaction += frac
			acct.periods++
		}
	}
	// The summaries. With zero completed periods — a run cancelled before
	// its first schedule — the mean satisfaction stays zero.
	if len(m.Periods) > 0 {
		var satSum float64
		for _, ps := range m.Periods {
			if ps.MaxRwd > 0 {
				satSum += ps.Reward / ps.MaxRwd
			}
		}
		m.MeanSatisfaction = satSum / float64(len(m.Periods))
	}
	userSat := make([]float64, 0, len(perUser))
	for _, acct := range perUser {
		userSat = append(userSat, acct.satisfaction/float64(acct.periods))
	}
	sort.Float64s(userSat)
	m.UserSatisfaction = userSat
	m.Fairness = stats.JainIndex(userSat)
	m.ServiceFrequency = float64(slots) / float64(cfg.K)
	m.SatisfactionPerSlot = m.MeanSatisfaction / float64(cfg.K)
	return m, cancelErr
}

// orL2 is nm, or the 2-norm when nm is nil: the default of every norm the
// package takes.
func orL2(nm norm.Norm) norm.Norm {
	if nm == nil {
		return norm.L2{}
	}
	return nm
}

type userAccount struct {
	satisfaction float64
	periods      int
}

// RunTimeline replays a recorded population timeline through Run's period
// loop: period p's centers are computed against snapshot p exactly, so two
// replays of the same timeline with the same algorithm are bit-identical —
// the trace-driven analogue of Run, with the population evolution fixed up
// front instead of simulated. Cancellation follows Run's anytime contract:
// completed periods are aggregated and returned with ctx.Err().
func RunTimeline(ctx context.Context, tl *trace.Timeline, alg core.Algorithm, cfg Config) (*Metrics, error) {
	if tl == nil {
		return nil, errors.New("broadcast: nil timeline")
	}
	if alg == nil {
		return nil, errors.New("broadcast: nil algorithm")
	}
	if err := tl.Validate(); err != nil {
		return nil, err
	}
	// Period count comes from the timeline; validate the rest of the
	// config against it.
	cfg.Periods = tl.Periods()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return runPeriods(ctx, alg, cfg, func(p int) (*trace.Trace, error) { return tl.Snapshots[p], nil })
}

// KSweep runs the same population under k = 1..kMax and reports the
// satisfaction/frequency tradeoff curve, regenerating the §III.A observation
// quantitatively. A cancelled sweep returns the k values completed so far
// together with ctx.Err().
func KSweep(ctx context.Context, tr *trace.Trace, alg core.Algorithm, base Config, kMax int) ([]Metrics, error) {
	if kMax <= 0 {
		return nil, fmt.Errorf("broadcast: kMax = %d", kMax)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]Metrics, 0, kMax)
	for k := 1; k <= kMax; k++ {
		cfg := base
		cfg.K = k
		m, err := Run(ctx, tr, alg, cfg)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return out, cerr // keep the fully-swept k values
			}
			return nil, err
		}
		out = append(out, *m)
	}
	return out, nil
}
