package broadcast

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// AssignMode selects how users are partitioned among stations in a
// multi-station deployment.
type AssignMode int

const (
	// RandomAssign spreads users uniformly at random across stations
	// (load balancing without interest awareness).
	RandomAssign AssignMode = iota
	// NearestAnchor places one anchor per station uniformly in the
	// interest region and attaches each user to the nearest anchor —
	// interest-aware cell formation.
	NearestAnchor
)

// String implements fmt.Stringer.
func (m AssignMode) String() string {
	switch m {
	case RandomAssign:
		return "random"
	case NearestAnchor:
		return "nearest-anchor"
	default:
		return fmt.Sprintf("AssignMode(%d)", int(m))
	}
}

// StationMetrics is one station's outcome inside a multi-station run.
type StationMetrics struct {
	Station int
	Users   int
	Metrics Metrics
}

// MultiMetrics aggregates a multi-station deployment.
type MultiMetrics struct {
	Stations []StationMetrics
	// MeanSatisfaction is the per-period satisfaction fraction aggregated
	// over all stations, weighted by each station's achievable reward.
	MeanSatisfaction float64
	// TotalBroadcasts is stations × k per period — the deployment's total
	// broadcast budget, for same-budget comparisons.
	TotalBroadcasts int
}

// RunMulti simulates S independent base stations sharing one user
// population: users are partitioned once (by cfg.Seed), then every station
// runs the standard simulation over its own subpopulation with the same
// per-station config. Stations with no users contribute nothing. Use it to
// study whether S stations × k broadcasts beat one station × S·k broadcasts
// under the same total budget.
//
// Cancellation is anytime at station granularity: stations simulated before
// ctx was done are aggregated and returned with ctx.Err(); the station whose
// own run was cut short is dropped.
func RunMulti(ctx context.Context, tr *trace.Trace, alg core.Algorithm, cfg Config, stations int, mode AssignMode) (*MultiMetrics, error) {
	if tr == nil {
		return nil, errors.New("broadcast: nil trace")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if stations <= 0 {
		return nil, fmt.Errorf("broadcast: stations = %d", stations)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed ^ 0x571a7)
	assign := make([]int, len(tr.Users))
	switch mode {
	case RandomAssign:
		for i := range assign {
			assign[i] = rng.Intn(stations)
		}
	case NearestAnchor:
		box := tr.Box()
		anchors := make([]vec.V, stations)
		for s := range anchors {
			anchors[s] = box.Sample(rng)
		}
		nm := orL2(cfg.Norm)
		for i, u := range tr.Users {
			p := vec.Of(u.Interest...)
			best, bestD := 0, nm.Dist(p, anchors[0])
			for s := 1; s < stations; s++ {
				if d := nm.Dist(p, anchors[s]); d < bestD {
					best, bestD = s, d
				}
			}
			assign[i] = best
		}
	default:
		return nil, fmt.Errorf("broadcast: unknown assign mode %v", mode)
	}

	out := &MultiMetrics{TotalBroadcasts: stations * cfg.K}
	var satWeighted, weightTotal float64
	var cancelErr error
	for s := 0; s < stations; s++ {
		if err := ctx.Err(); err != nil {
			cancelErr = err
			break
		}
		sub := &trace.Trace{Dim: tr.Dim, Lo: append([]float64{}, tr.Lo...), Hi: append([]float64{}, tr.Hi...)}
		for i, u := range tr.Users {
			if assign[i] == s {
				sub.Users = append(sub.Users, trace.User{
					ID:       u.ID,
					Interest: append([]float64{}, u.Interest...),
					Weight:   u.Weight,
				})
			}
		}
		if len(sub.Users) == 0 {
			out.Stations = append(out.Stations, StationMetrics{Station: s})
			continue
		}
		scfg := cfg
		scfg.Seed = cfg.Seed ^ (uint64(s)+1)*0x9e3779b97f4a7c15
		m, err := Run(ctx, sub, alg, scfg)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				cancelErr = cerr
				break // drop the cut-short station
			}
			return nil, fmt.Errorf("broadcast: station %d: %w", s, err)
		}
		out.Stations = append(out.Stations, StationMetrics{Station: s, Users: len(sub.Users), Metrics: *m})
		// Weight each station's satisfaction by its achievable reward.
		var w float64
		for _, u := range sub.Users {
			w += u.Weight
		}
		satWeighted += m.MeanSatisfaction * w
		weightTotal += w
	}
	if weightTotal > 0 {
		out.MeanSatisfaction = satWeighted / weightTotal
	}
	return out, cancelErr
}
