// Package optimize provides approximate solvers for the continuous
// single-center subproblem of the paper's Algorithm 1 (Eq. 10): place one
// center anywhere in R^m to maximize the residual-capped coverage reward.
// The paper proves the subproblem NP-hard, so these are heuristics; the
// default Multistart solver (compass pattern search seeded from every data
// point plus a coarse grid) is strong at the paper's problem scales and is
// the documented substitution for the paper's unspecified inner optimizer
// (DESIGN.md §3.1).
package optimize

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/vec"
)

// Grid exhaustively scores the vertices of a uniform lattice over the search
// box together with every data point, and returns the best. It is simple,
// deterministic, and a useful lower-fidelity ablation against Multistart.
type Grid struct {
	// Box bounds the lattice. A zero Box derives bounds from the data
	// expanded by the coverage radius.
	Box pointset.Box
	// Per is the lattice resolution per dimension (default 17).
	Per int
	// Workers bounds the scan parallelism; <= 0 uses all CPUs.
	Workers int
}

// Name implements core.InnerSolver.
func (g Grid) Name() string { return fmt.Sprintf("grid%d", g.perOrDefault()) }

func (g Grid) perOrDefault() int {
	if g.Per <= 0 {
		return 17
	}
	return g.Per
}

// Solve implements core.InnerSolver.
func (g Grid) Solve(ctx context.Context, in *reward.Instance, y []float64) (vec.V, error) {
	if in == nil {
		return nil, errors.New("optimize: nil instance")
	}
	box, err := searchBox(g.Box, in)
	if err != nil {
		return nil, err
	}
	grid, err := pointset.GridPoints(box, g.perOrDefault())
	if err != nil {
		return nil, err
	}
	cands := append(grid, in.Set.Points()...)
	idx, _, cerr := parallel.Argmax(ctx, len(cands), g.Workers, nil, func(i int) float64 {
		return in.RoundGain(cands[i], y)
	})
	if cerr != nil && idx < 0 {
		return nil, cerr
	}
	return cands[idx].Clone(), cerr
}

// Multistart seeds a compass pattern search from the most promising
// candidate starts (all data points plus a coarse lattice), refines each in
// parallel, and returns the best center found. This is the default inner
// solver for the round-based heuristic ("greedy 1").
type Multistart struct {
	// Box bounds the coarse seeding lattice. A zero Box derives bounds
	// from the data expanded by the coverage radius.
	Box pointset.Box
	// GridPer is the seeding-lattice resolution per dimension (default 5).
	GridPer int
	// TopStarts is how many of the best-scoring seeds are refined
	// (default 8).
	TopStarts int
	// InitStepFrac is the initial compass step as a fraction of the
	// coverage radius (default 0.5).
	InitStepFrac float64
	// MinStepFrac is the convergence threshold as a fraction of the
	// coverage radius (default 1e-3).
	MinStepFrac float64
	// Workers bounds the refinement parallelism; <= 0 uses all CPUs.
	Workers int
}

// Name implements core.InnerSolver.
func (Multistart) Name() string { return "multistart" }

// Solve implements core.InnerSolver. Cancellation is cooperative between
// the seeding scan and each refinement start; a cancelled call returns the
// best center refined so far (or nil when none was) with ctx.Err().
func (m Multistart) Solve(ctx context.Context, in *reward.Instance, y []float64) (vec.V, error) {
	if in == nil {
		return nil, errors.New("optimize: nil instance")
	}
	box, err := searchBox(m.Box, in)
	if err != nil {
		return nil, err
	}
	gridPer := m.GridPer
	if gridPer <= 0 {
		gridPer = 5
	}
	top := m.TopStarts
	if top <= 0 {
		top = 8
	}
	initStep := m.InitStepFrac
	if initStep <= 0 {
		initStep = 0.5
	}
	minStep := m.MinStepFrac
	if minStep <= 0 {
		minStep = 1e-3
	}

	grid, err := pointset.GridPoints(box, gridPer)
	if err != nil {
		return nil, err
	}
	starts := append(grid, in.Set.Points()...)
	scores := make([]float64, len(starts))
	if cerr := parallel.For(ctx, len(starts), m.Workers, nil, func(i int) {
		scores[i] = in.RoundGain(starts[i], y)
	}); cerr != nil {
		// A partially scored seeding scan would bias the start ranking;
		// there is no refined center yet, so report plain cancellation.
		return nil, cerr
	}
	order := make([]int, len(starts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	if top > len(order) {
		top = len(order)
	}

	type refined struct {
		c vec.V
		g float64
	}
	best := make([]refined, top)
	cerr := parallel.For(ctx, top, m.Workers, nil, func(i int) {
		s := starts[order[i]]
		c, g := CompassSearch(in, y, s, initStep*in.Radius, minStep*in.Radius)
		best[i] = refined{c: c, g: g}
	})
	win := -1
	for i := 0; i < top; i++ {
		if best[i].c != nil && (win < 0 || best[i].g > best[win].g) {
			win = i
		}
	}
	if win < 0 {
		return nil, cerr
	}
	return best[win].c, cerr
}

// CompassSearch hill-climbs the round gain from start using axis-aligned
// moves with geometric step halving, returning the final center and its
// gain. It is exported for the ablation benches.
func CompassSearch(in *reward.Instance, y []float64, start vec.V, initStep, minStep float64) (vec.V, float64) {
	c := start.Clone()
	g := in.RoundGain(c, y)
	dim := c.Dim()
	if minStep <= 0 {
		minStep = 1e-9
	}
	for step := initStep; step >= minStep; {
		improved := false
		for d := 0; d < dim; d++ {
			for _, sgn := range [2]float64{+1, -1} {
				c[d] += sgn * step
				if ng := in.RoundGain(c, y); ng > g+1e-12 {
					g = ng
					improved = true
				} else {
					c[d] -= sgn * step
				}
			}
		}
		if !improved {
			step /= 2
		}
	}
	return c, g
}

// searchBox resolves the solver's search region: the configured box when
// valid, otherwise the data bounding box expanded by the coverage radius
// (no useful center lies farther than r from every point).
func searchBox(box pointset.Box, in *reward.Instance) (pointset.Box, error) {
	if box.Valid() {
		if box.Dim() != in.Set.Dim() {
			return pointset.Box{}, fmt.Errorf("optimize: box dim %d != instance dim %d", box.Dim(), in.Set.Dim())
		}
		return box, nil
	}
	lo, hi := in.Set.Bounds()
	lo = lo.Clone()
	hi = hi.Clone()
	for d := range lo {
		lo[d] -= in.Radius
		hi[d] += in.Radius
	}
	return pointset.Box{Lo: lo, Hi: hi}, nil
}

var (
	_ core.InnerSolver = Grid{}
	_ core.InnerSolver = Multistart{}
)
