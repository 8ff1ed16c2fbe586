package optimize

import (
	"context"
	"errors"
	"math"

	"repro/internal/parallel"
	"repro/internal/reward"
	"repro/internal/vec"
)

// Critical solves the 2-D Euclidean round problem by enumerating the
// geometry's critical points. The round gain g(c) is piecewise smooth: its
// pieces change exactly where some user enters or leaves the radius-r disk,
// i.e. on the circles of radius r around the users. Local maxima therefore
// lie at data points, at intersections of two such circles (where the
// active set changes along two constraints), or at interior stationary
// points of a fixed active set — which a short compass polish recovers.
// Enumerating all O(n²) circle intersections plus the n data points and
// polishing the best few is exact in practice at paper scales and gives a
// geometric alternative to random multistart.
type Critical struct {
	// Top is how many best seeds are polished (default 8).
	Top int
	// Workers bounds the scoring parallelism; <= 0 uses all CPUs.
	Workers int
}

// Name implements core.InnerSolver.
func (Critical) Name() string { return "critical" }

// Solve implements core.InnerSolver. Only 2-D instances are supported (the
// critical-point characterization used here is planar); other dimensions
// return an error.
func (cr Critical) Solve(ctx context.Context, in *reward.Instance, y []float64) (vec.V, error) {
	if in == nil {
		return nil, errors.New("optimize: nil instance")
	}
	if in.Set.Dim() != 2 {
		return nil, errors.New("optimize: Critical supports 2-D instances only")
	}
	top := cr.Top
	if top <= 0 {
		top = 8
	}
	n := in.N()
	r := in.Radius

	// Candidates: all data points plus all pairwise circle intersections.
	cands := make([]vec.V, 0, n+n*n/4)
	for i := 0; i < n; i++ {
		cands = append(cands, in.Set.Point(i))
	}
	for i := 0; i < n; i++ {
		pi := in.Set.Point(i)
		for j := i + 1; j < n; j++ {
			pj := in.Set.Point(j)
			d := pi.Dist2(pj)
			if d == 0 || d > 2*r {
				continue // circles coincide or do not intersect
			}
			// Midpoint plus/minus the perpendicular offset h.
			mid := pi.Mid(pj)
			h := r*r - (d/2)*(d/2)
			if h < 0 {
				continue
			}
			hh := math.Sqrt(h)
			// Unit perpendicular to pj−pi.
			ux := (pj[1] - pi[1]) / d
			uy := -(pj[0] - pi[0]) / d
			cands = append(cands,
				vec.Of(mid[0]+hh*ux, mid[1]+hh*uy),
				vec.Of(mid[0]-hh*ux, mid[1]-hh*uy))
		}
	}

	scores := make([]float64, len(cands))
	if cerr := parallel.For(ctx, len(cands), cr.Workers, nil, func(i int) {
		scores[i] = in.RoundGain(cands[i], y)
	}); cerr != nil {
		return nil, cerr
	}
	// Select the top seeds without sorting everything: repeated argmax is
	// fine at these sizes, but a partial selection keeps it tidy.
	type seed struct {
		idx   int
		score float64
	}
	best := make([]seed, 0, top)
	for i, s := range scores {
		if len(best) < top {
			best = append(best, seed{i, s})
			continue
		}
		worst := 0
		for b := 1; b < len(best); b++ {
			if best[b].score < best[worst].score {
				worst = b
			}
		}
		if s > best[worst].score {
			best[worst] = seed{i, s}
		}
	}

	results := make([]struct {
		c vec.V
		g float64
	}, len(best))
	cerr := parallel.For(ctx, len(best), cr.Workers, nil, func(i int) {
		c, g := CompassSearch(in, y, cands[best[i].idx], in.Radius/8, in.Radius*1e-3)
		results[i].c, results[i].g = c, g
	})
	win := -1
	for i := 0; i < len(results); i++ {
		if results[i].c != nil && (win < 0 || results[i].g > results[win].g) {
			win = i
		}
	}
	if win < 0 {
		// Cancelled before any seed was polished: fall back to the best
		// unpolished candidate so the caller still gets an incumbent.
		top := 0
		for i := 1; i < len(cands); i++ {
			if scores[i] > scores[top] {
				top = i
			}
		}
		return cands[top].Clone(), cerr
	}
	return results[win].c, cerr
}
