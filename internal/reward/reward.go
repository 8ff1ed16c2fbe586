// Package reward implements the paper's reward model (Eqs. 1–7): a point
// x_i with maximum reward w_i covered by a center c at distance d gains
// w_i·(1 − d/r) when d ≤ r, and the total reward a point collects over all
// k centers is capped at w_i. It also implements the residual bookkeeping
// (y_i, z_i) shared by all four algorithms (Eqs. 10, 13, 14, 15).
package reward

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/spatial"
	"repro/internal/vec"
)

// NeighborFinder narrows coverage evaluation to the points that could lie
// within the coverage radius of a query center. AppendNear appends those
// indices to dst, strictly ascending and without duplicates, and returns
// the extended slice, as int32s to halve the bytes of windows and scratch
// (a spatial.Grid refuses more than MaxInt32 points). It must be
// conservative: every point within radius r of c (under the instance norm)
// must be appended; extras are harmless because their coverage is zero. A
// wrong-dimension or non-finite query appends nothing. Package spatial's
// Grid, the one index NewIndexed installs, implements it for every p ≥ 1;
// tests install stub finders through the same interface.
type NeighborFinder interface {
	AppendNear(dst []int32, c vec.V) []int32
}

// Instance binds a weighted point set to an interest-distance norm and a
// coverage radius r. It is the immutable problem description every algorithm
// consumes. Every gain, objective, commit, covered set and coverage row is
// evaluated through the norm's Within kernel over the set's flat coordinate
// array, which returns only the points strictly within r: a point beyond r
// contributes a zero term, and IEEE addition of a skipped +0 term is exact.
// An optional NeighborFinder accelerates evaluation at large n without
// changing any result bit: the finder's indices are ascending, so an
// accelerated sum adds the same nonzero terms in the same order as a full
// scan.
type Instance struct {
	Set    *pointset.Set
	Norm   norm.Norm
	Radius float64

	finder NeighborFinder
	obs    obs.Collector
}

// SetFinder installs (or clears, with nil) a neighbor accelerator. It must
// index exactly this instance's points at exactly this instance's radius.
func (in *Instance) SetFinder(f NeighborFinder) { in.finder = f }

// Finder returns the installed neighbor accelerator, or nil.
func (in *Instance) Finder() NeighborFinder { return in.finder }

// Grid returns the instance's radius-r grid: the installed finder when it
// is a *spatial.Grid, which by SetFinder's contract indexes exactly these
// points at this radius, and otherwise a new grid, which it does not
// install. The shard partition and nearlinear's snap read it, so a solve
// on an indexed instance builds its grid once.
func (in *Instance) Grid() (*spatial.Grid, error) {
	if g, ok := in.finder.(*spatial.Grid); ok {
		return g, nil
	}
	return spatial.NewGridCoords(in.Set.Coords(), in.Set.Dim(), in.Radius)
}

// SetCollector installs (or clears, with nil) the solve's telemetry
// collector. It is the one place a solve's collector is attached: a live
// collector counts every reward evaluation — obs.CtrGainEvals per RoundGain
// and per point of RoundGains, obs.CtrApplyRounds per ApplyRound,
// obs.CtrObjectiveEvals per Objective — and every algorithm run on the
// instance reports its rounds, scans and stage timers to it (Collector).
// The collector must be safe for concurrent use: candidate scans call
// RoundGain from many goroutines.
func (in *Instance) SetCollector(c obs.Collector) {
	if !obs.Active(c) {
		c = nil
	}
	in.obs = c
}

// Collector returns the installed telemetry collector, or nil when none is
// live.
func (in *Instance) Collector() obs.Collector { return in.obs }

// WithCollector returns a shallow copy of the instance with c as its
// collector (nil for none). The copy shares the point set and the finder,
// so a solve on it gives the same bits; the pipeline runs its part solves
// on collector-less copies.
func (in *Instance) WithCollector(c obs.Collector) *Instance {
	cp := *in
	cp.SetCollector(c)
	return &cp
}

// NewInstance validates and builds an Instance. The radius must be positive
// and finite.
func NewInstance(set *pointset.Set, n norm.Norm, radius float64) (*Instance, error) {
	if set == nil {
		return nil, errors.New("reward: nil point set")
	}
	if n == nil {
		return nil, errors.New("reward: nil norm")
	}
	if radius <= 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return nil, fmt.Errorf("reward: invalid radius %v", radius)
	}
	return &Instance{Set: set, Norm: n, Radius: radius}, nil
}

// NewIndexed builds the instance a solve runs on: NewInstance's, with col
// as its collector and, exactly where spatial.Prunes says the grid pays for
// itself, a radius-r spatial.Grid as its finder. The grid never changes a
// result bit. The server, the shard partition, cdgreedy and the station and
// churn loops build their instances here; NewInstance alone stays
// unindexed.
func NewIndexed(set *pointset.Set, n norm.Norm, radius float64, col obs.Collector) (*Instance, error) {
	in, err := NewInstance(set, n, radius)
	if err != nil {
		return nil, err
	}
	in.SetCollector(col)
	if spatial.Prunes(set.Coords(), set.Dim(), radius) {
		if g, err := spatial.NewGridCoords(set.Coords(), set.Dim(), radius); err == nil {
			in.finder = g
		}
	}
	return in, nil
}

// N reports the number of points.
func (in *Instance) N() int { return in.Set.Len() }

// Coverage returns [1 − d(c, x_i)/r]_+, the unweighted reward fraction point
// i receives from a center at c (paper Eq. 1 divided by w_i). It is 0 unless
// d < r, so a NaN distance covers nothing, as in Norm.Within.
func (in *Instance) Coverage(c vec.V, i int) float64 {
	d := in.Norm.Dist(c, in.Set.Point(i))
	if !(d < in.Radius) {
		return 0
	}
	return 1 - d/in.Radius
}

// Objective evaluates f(C) = Σ_i w_i·min(Σ_j [1 − d(c_j, x_i)/r]_+, 1)
// (paper Eq. 7) for an arbitrary center set.
func (in *Instance) Objective(centers []vec.V) float64 {
	if in.obs != nil {
		in.obs.Count(obs.CtrObjectiveEvals, 1)
	}
	return in.objectiveBatch(centers)
}

// NewResiduals returns the initial residual vector y with y_i = 1 for all i
// (line 1 of Algorithms 1–4).
func (in *Instance) NewResiduals() []float64 {
	y := make([]float64, in.N())
	for i := range y {
		y[i] = 1
	}
	return y
}

// RoundGain evaluates the round objective g for center c against residuals
// y: Σ_i w_i·min([1 − d(c, x_i)/r]_+, y_i) (the inner objective of
// Eqs. 10/13/14/15). y is not modified.
func (in *Instance) RoundGain(c vec.V, y []float64) float64 {
	in.countGainEvals(1)
	sc := scratchPool.Get().(*scratch)
	idx := in.near(sc, c)
	w, r := in.Set.Weights(), in.Radius
	var g float64
	for j, p := range sc.pos {
		i := p
		if idx != nil {
			i = idx[p]
		}
		z := 1 - sc.dist[j]/r
		if yi := y[i]; z > yi {
			z = yi
		}
		g += w[i] * z
	}
	scratchPool.Put(sc)
	return g
}

// RoundGains fills out[a] = RoundGain(Set.Point(a), y) for every point a,
// bit for bit: the all-points candidate scan of Algorithm 2's first round.
// out must hold N() values. It is one symmetric sweep that computes each
// in-radius pair's distance once (see roundGainsSweep), and counts one
// obs.CtrGainEvals per point evaluated. It reads ctx about every
// gainsCheckRows distances and returns ctx.Err() with out partly filled.
func (in *Instance) RoundGains(ctx context.Context, y, out []float64) error {
	// Every point's window is queried below.
	if g, ok := in.finder.(*spatial.Grid); ok {
		g.FillWindows()
	}
	return in.roundGainsSweep(ctx, y, out[:in.N()])
}

// ApplyRound commits center c: it computes z_i = min([1 − d/r]_+, y_i),
// subtracts it from y in place (line "update y_i^{j+1} = y_i^j − z_i^j"),
// and returns the round gain Σ_i w_i·z_i. Only the points within r are
// visited: elsewhere z_i = 0, and y_i − 0 and gain + w_i·0 change no bit.
func (in *Instance) ApplyRound(c vec.V, y []float64) (gain float64) {
	if in.obs != nil {
		in.obs.Count(obs.CtrApplyRounds, 1)
	}
	sc := scratchPool.Get().(*scratch)
	idx := in.near(sc, c)
	w, r := in.Set.Weights(), in.Radius
	for j, p := range sc.pos {
		i := p
		if idx != nil {
			i = idx[p]
		}
		zi := 1 - sc.dist[j]/r
		if yi := y[i]; zi > yi {
			zi = yi
		}
		y[i] -= zi
		if y[i] < 0 { // guard against float drift; y_i is ≥ 0 by construction
			y[i] = 0
		}
		gain += w[i] * zi
	}
	scratchPool.Put(sc)
	return gain
}

// CoveredIndices returns the indices of points strictly inside the radius-r
// ball at c (coverage fraction > 0), in ascending order, or nil when none
// is. Algorithm 4 grows its disk from these. The result is the only
// allocation: the kernel runs in pooled scratch.
func (in *Instance) CoveredIndices(c vec.V) []int {
	sc := scratchPool.Get().(*scratch)
	idx := in.near(sc, c)
	r := in.Radius
	covered := sc.pos[:0]
	for j, p := range sc.pos {
		if 1-sc.dist[j]/r > 0 { // d < r can still round to coverage 0
			covered = append(covered, p)
		}
	}
	var out []int
	if len(covered) > 0 {
		out = make([]int, len(covered))
		for j, p := range covered {
			i := p
			if idx != nil {
				i = idx[p]
			}
			out[j] = int(i)
		}
	}
	scratchPool.Put(sc)
	return out
}

// ValidResiduals reports whether every y_i lies in [0, 1] (an invariant the
// algorithms maintain; exported for tests and debugging assertions).
func ValidResiduals(y []float64) bool {
	for _, v := range y {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return false
		}
	}
	return true
}
