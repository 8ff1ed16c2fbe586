package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/reward"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// BallMode selects how ComplexGreedy computes the smallest disk covering a
// point group when proposing a new center (step 4 of the paper's new-center
// procedure).
type BallMode int

const (
	// BallAuto picks the best exact construction for the instance norm:
	// Welzl for the 2-norm, rotation for the 1-norm in 2-D, the bounding
	// box for the ∞-norm, and the projection rule otherwise.
	BallAuto BallMode = iota
	// BallProjection always uses the paper's per-dimension (min+max)/2
	// projection rule (§V.B), regardless of norm. Faithful to the paper
	// for the 1-norm in any dimension; an ablation elsewhere.
	BallProjection
	// BallExactLP solves the exact smallest enclosing 1-norm ball in any
	// dimension by linear programming (geom.MinBallL1LP). Only meaningful
	// for 1-norm instances; other norms fall back to BallAuto's dispatch.
	BallExactLP
)

// String implements fmt.Stringer.
func (m BallMode) String() string {
	switch m {
	case BallAuto:
		return "auto"
	case BallProjection:
		return "projection"
	case BallExactLP:
		return "exact-lp"
	default:
		return fmt.Sprintf("BallMode(%d)", int(m))
	}
}

// ComplexGreedy is the paper's Algorithm 4 ("greedy 4"). Each round it runs
// the new-center walk from every data point as a seed: repeatedly take the
// heaviest not-yet-covered point (by residual reward w_j·y_j), compute the
// smallest enclosing ball of the currently covered points plus that point,
// and move the radius-r disk to that ball's center if doing so strictly
// increases the coverage reward. The best walked center over all seeds wins
// the round; unlike Algorithms 2–3, it may lie anywhere in space.
//
// The paper's pseudocode for the walk is internally inconsistent (its stop
// condition fires exactly when its growth step would apply); see DESIGN.md
// §3.3 for the reconstruction implemented here, which also considers the
// pure re-centering move (enclosing ball of the covered set alone) so both
// readings of the pseudocode are subsumed. Complexity O(kn³) as in
// Theorem 4.
//
// With a collector on the instance it also counts hill-climb steps
// (obs.CtrWalkSteps) and every enclosing-ball construction (obs.CtrSEBCalls
// and obs.EvSEB via package geom).
type ComplexGreedy struct {
	// Mode selects the enclosing-ball construction.
	Mode BallMode
	// Workers bounds the per-seed parallelism; <= 0 uses all CPUs.
	Workers int
	// Seed drives the Welzl shuffle only; the result is the exact ball
	// regardless of its value.
	Seed uint64
}

// Name implements Algorithm.
func (ComplexGreedy) Name() string { return "greedy4" }

// Run implements Algorithm.
func (a ComplexGreedy) Run(ctx context.Context, in *reward.Instance, k int) (*Result, error) {
	if err := checkArgs(in, k); err != nil {
		return nil, err
	}
	ctx = orBG(ctx)
	n := in.N()
	res := &Result{Algorithm: a.Name()}
	y := in.NewResiduals()

	type candidate struct {
		center vec.V
		gain   float64
	}
	cands := make([]candidate, n)
	col := in.Collector()

	for j := 0; j < k; j++ {
		if err := ctx.Err(); err != nil {
			return CancelRun(col, res, err)
		}
		rs := startRound(ctx, col, a.Name(), j+1)
		var steps int64
		cerr := parallel.For(ctx, n, a.Workers, col, func(i int) {
			rng := xrand.New(a.Seed ^ (uint64(j)<<32 + uint64(i) + 0x9e37))
			c, g, st := a.walk(in, y, i, rng)
			cands[i] = candidate{center: c, gain: g}
			if rs.active() {
				atomic.AddInt64(&steps, int64(st))
			}
		})
		if cerr != nil {
			// Cancelled mid-scan: only some seed walks ran, so the best
			// candidate may differ from the uncancelled round's. Discard
			// the round and return the committed prefix.
			return CancelRun(col, res, cerr)
		}
		if rs.active() {
			rs.c.Count(obs.CtrCandidates, int64(n))
			rs.c.Count(obs.CtrWalkSteps, steps)
		}
		best := 0
		for i := 1; i < n; i++ {
			if cands[i].gain > cands[best].gain {
				best = i
			}
		}
		c := cands[best].center
		gain := in.ApplyRound(c, y)
		rs.commit(res, c, gain, map[string]float64{"candidates": float64(n), "walk_steps": float64(steps)})
	}
	return res, nil
}

// walk performs the new-center hill climb from seed point i against
// residuals y and returns the best center found with its round gain and the
// number of improving steps taken.
func (a ComplexGreedy) walk(in *reward.Instance, y []float64, seed int, rng *xrand.Rand) (vec.V, float64, int) {
	c := in.Set.Point(seed).Clone()
	gain := in.RoundGain(c, y)
	n := in.N()
	steps := 0
	const eps = 1e-12
	for step := 0; step < n-1; step++ {
		covered := in.CoveredIndices(c)
		// Heaviest point outside the disk by residual potential w_j·y_j
		// (ties toward the lowest index, matching the paper's rule).
		heaviest, hv := -1, 0.0
		inDisk := make(map[int]bool, len(covered))
		for _, ci := range covered {
			inDisk[ci] = true
		}
		for jj := 0; jj < n; jj++ {
			if inDisk[jj] {
				continue
			}
			if v := in.Set.Weight(jj) * y[jj]; v > hv+eps {
				heaviest, hv = jj, v
			}
		}

		bestC, bestG := c, gain
		// Move (a): re-center on the enclosing ball of the covered set
		// (the paper's step when the heaviest point is already inside).
		if len(covered) > 1 {
			if nc, ok := a.ballCenter(in, covered, -1, rng); ok {
				if g := in.RoundGain(nc, y); g > bestG+eps {
					bestC, bestG = nc, g
				}
			}
		}
		// Move (b): include the heaviest uncovered point (paper step 4).
		if heaviest >= 0 {
			if nc, ok := a.ballCenter(in, covered, heaviest, rng); ok {
				if g := in.RoundGain(nc, y); g > bestG+eps {
					bestC, bestG = nc, g
				}
			}
		}
		if bestG <= gain+eps {
			break // no strictly improving move (paper step 5 "otherwise")
		}
		c, gain = bestC, bestG
		steps++
	}
	return c, gain, steps
}

// ballCenter returns the center of the smallest disk covering the points at
// the covered indices plus extra (extra < 0 means none), under the
// configured ball mode.
func (a ComplexGreedy) ballCenter(in *reward.Instance, covered []int, extra int, rng *xrand.Rand) (vec.V, bool) {
	pts := make([]vec.V, 0, len(covered)+1)
	for _, i := range covered {
		pts = append(pts, in.Set.Point(i))
	}
	if extra >= 0 {
		pts = append(pts, in.Set.Point(extra))
	}
	if len(pts) == 0 {
		return nil, false
	}
	var b geom.Ball
	var err error
	switch {
	case a.Mode == BallProjection:
		b, err = geom.ProjectionBall(in.Norm, pts)
	case a.Mode == BallExactLP && in.Norm.P() == 1:
		b, err = geom.MinBallL1LP(pts)
	default:
		b, err = geom.EnclosingBall(in.Norm, pts, rng, in.Collector())
	}
	if err != nil {
		return nil, false
	}
	return b.Center, true
}

var _ Algorithm = ComplexGreedy{}
