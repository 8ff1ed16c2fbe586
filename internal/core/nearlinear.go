// NearLinear is the grid-based approximate greedy of "Submodular Clustering
// in Low Dimensions" (Backurs & Har-Peled) adapted to the paper's coverage
// objective: instead of rescanning every user each round (O(n) per round for
// greedy 3, O(n²) for greedy 2), it snaps candidate centers to the occupied
// cells of a radius-r grid and pays O(occupied cells · 3^m) per round, which
// is near-linear in n overall because the grid is built once in O(n).
//
// Three stages, each one obs stage (a span and its timer, under one name):
//
//  1. nearlinear.grid_snap — take the instance's radius-r internal/spatial
//     grid (built here only when the instance's finder is not one),
//     aggregate each occupied cell into a weighted-centroid representative,
//     its total weight, and its residual mass, and precompute the
//     cell-adjacency coverage factors used by the per-round scan.
//  2. nearlinear.seed — a k-means++-style D²-weighted draw over cell
//     representatives (probability ∝ residual mass × squared distance to
//     the nearest chosen seed) injects one diversity candidate per round,
//     deterministically from Seed via xrand.
//  3. nearlinear.refine — k greedy rounds, each a core.round stage inside
//     it. Each round ranks every occupied cell by an
//     approximate gain ĝ (cell residual masses attenuated by the
//     precomputed representative-distance coverage factors), exactly scores
//     a bounded candidate pool (top cells by ĝ + the round's seed; per cell
//     both the representative and the heaviest-residual point), then locally
//     refines the winner by residual-weighted mean shift and an enclosing
//     -ball re-centering (Badoiu–Clarkson for large Euclidean supports),
//     accepting a move only on exact-gain improvement. The commit is an
//     exact reward.ApplyRound, so gains telescope identically to the other
//     greedies and Result.Validate always passes.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/spatial"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// DefaultRefineRounds is the per-center local-refinement budget NearLinear
// uses when Refine is 0. Two rounds (one mean shift, one re-center attempt
// after it) recover most of the gap to exact greedy in the benchmarked
// instances; more rounds trade time for marginal quality.
const DefaultRefineRounds = 2

// nlTopCells bounds the candidate pool exactly scored per round: the top
// cells by approximate gain, plus the round's k-means++ seed. Exact scoring
// costs one neighborhood scan per candidate, so the pool size trades quality
// for per-round time independent of n.
const nlTopCells = 6

// nlWelzlCutoff is the support size above which the Euclidean enclosing-ball
// refinement switches from exact Welzl to the Badoiu–Clarkson approximate
// center (bounded iterations, no recursion depth to worry about).
const nlWelzlCutoff = 64

// NearLinear implements the near-linear grid-snapped greedy. The zero value
// is usable: seed 0, default refinement budget. It runs serially —
// per-round work is O(occupied cells), so there is nothing worth
// parallelizing — which makes its output trivially independent of any
// Workers setting. With a collector on the instance it reports its stages,
// counters and rounds; its exact evaluations run on a shadow instance that
// shares that collector.
type NearLinear struct {
	// Seed drives the k-means++ seeding draw and any enclosing-ball
	// shuffles. Deterministic per seed.
	Seed uint64
	// Refine is the per-center local-refinement round budget: 0 uses
	// DefaultRefineRounds, negative disables refinement.
	Refine int
}

// Name implements Algorithm.
func (NearLinear) Name() string { return "nearlinear" }

// nlState is the per-run working state shared by the stages.
type nlState struct {
	grid   *spatial.Grid
	cells  []spatial.Cell
	rep    []vec.V   // weighted centroid representative per occupied cell
	cellW  []float64 // total weight per cell (static)
	resW   []float64 // residual mass Σ w_i·y_i per cell (updated per commit)
	cellOf []int32   // point index -> occupied-cell index (grid.CellOf)
	nbIdx  [][]int32 // occupied neighbor cells per cell
	nbCov  [][]float64
}

// Run implements Algorithm. The anytime contract matches the other greedies:
// cancellation between rounds returns the bit-identical committed prefix
// with ctx.Err().
func (a NearLinear) Run(ctx context.Context, in *reward.Instance, k int) (*Result, error) {
	ctx = orBG(ctx)
	if err := checkArgs(in, k); err != nil {
		return nil, err
	}
	res := &Result{Algorithm: a.Name()}
	col := in.Collector()
	if ctx.Err() != nil {
		return CancelRun(col, res, ctx.Err())
	}

	snapSp := obs.StartStage(ctx, col, obs.StageNLSnap)
	st, err := a.snap(ctx, in)
	if ctx.Err() != nil {
		snapSp.End()
		return CancelRun(col, res, ctx.Err())
	}
	if err != nil {
		return nil, err
	}
	// ex is a copy of the instance with the snap grid installed as its
	// neighbor finder: exact RoundGain/ApplyRound touch only the O(3^m)
	// neighboring cells. The caller's instance is never mutated.
	ex := in.WithCollector(col)
	ex.SetFinder(st.grid)
	if col != nil {
		col.Count(obs.CtrNLCells, int64(len(st.cells)))
	}
	snapSp.SetAttr("cells", float64(len(st.cells)))
	snapSp.End()

	seedSp := obs.StartStage(ctx, col, obs.StageNLSeed)
	rng := xrand.New(a.Seed ^ 0x9e3779b97f4a7c15)
	seeds := a.seedCells(ctx, in, st, k, rng)
	if col != nil {
		col.Count(obs.CtrNLSeeds, int64(len(seeds)))
	}
	seedSp.SetAttr("seeds", float64(len(seeds)))
	seedSp.End()

	refineSp := obs.StartStage(ctx, col, obs.StageNLRefine)
	ctx = obs.ContextWithSpan(ctx, refineSp)
	y := ex.NewResiduals()
	for j := 1; j <= k; j++ {
		if ctx.Err() != nil {
			refineSp.End()
			return CancelRun(col, res, ctx.Err())
		}
		rs := startRound(ctx, col, a.Name(), j)
		var seed = -1
		if j-1 < len(seeds) {
			seed = seeds[j-1]
		}
		ctr, pool := a.selectRound(in, ex, st, y, seed)
		ctr, steps := a.refineCenter(in, ex, st, y, ctr, rng)
		// Settle the spent coverage against the per-cell residual masses
		// before the commit spends it: z_i = min(coverage, y_i) is exactly
		// what ApplyRound subtracts from y_i, and it is nonzero only at
		// covered points. Each cell's points settle in ascending order.
		for _, i := range ex.CoveredIndices(ctr.c) {
			zi := ex.Coverage(ctr.c, i)
			if yi := y[i]; zi > yi {
				zi = yi
			}
			if zi != 0 {
				ci := st.cellOf[i]
				st.resW[ci] -= in.Set.Weight(i) * zi
				if st.resW[ci] < 0 {
					st.resW[ci] = 0
				}
			}
		}
		gain := ex.ApplyRound(ctr.c, y)
		rs.commit(res, ctr.c.Clone(), gain, map[string]float64{
			"pool": float64(pool), "refine_steps": float64(steps)})
	}
	refineSp.End()
	return res, nil
}

// snap takes the instance's grid (reward.Instance.Grid) and computes the
// per-cell aggregates (stage 1). It returns a nil state once ctx is done.
func (a NearLinear) snap(ctx context.Context, in *reward.Instance) (*nlState, error) {
	grid, err := in.Grid()
	if err != nil {
		return nil, fmt.Errorf("core: nearlinear: %w", err)
	}
	st := &nlState{grid: grid, cells: grid.Cells(), cellOf: grid.CellOf()}
	m := len(st.cells)
	st.rep = make([]vec.V, m)
	st.cellW = make([]float64, m)
	st.resW = make([]float64, m)
	dim := in.Set.Dim()
	work := 0 // points and neighbour cells since ctx was last read
	for ci, cell := range st.cells {
		if work += len(cell.Points); work >= nlCheckPoints {
			if work = 0; ctx.Err() != nil {
				return nil, nil
			}
		}
		rep := vec.New(dim)
		var w float64
		for _, i := range cell.Points {
			wi := in.Set.Weight(i)
			w += wi
			p := in.Set.Point(i)
			for d := 0; d < dim; d++ {
				rep[d] += wi * p[d]
			}
		}
		if w > 0 {
			rep.ScaleInPlace(1 / w)
		} else {
			// Zero-weight cell: fall back to the unweighted centroid so the
			// representative still lies inside the cell.
			for _, i := range cell.Points {
				rep.AddInPlace(in.Set.Point(i))
			}
			rep.ScaleInPlace(1 / float64(len(cell.Points)))
		}
		st.rep[ci] = rep
		st.cellW[ci] = w
		st.resW[ci] = w // y_i = 1 initially, so residual mass = weight
	}
	// Precompute, per cell, its occupied 3^m-window neighbors (in
	// lexicographic order, so the ĝ sums are reproducible) and the coverage
	// factor between representatives. Representatives never move, so the
	// per-round approximate-gain scan reduces to multiply-adds over these
	// fixed factors and the current residual masses.
	st.nbIdx = make([][]int32, m)
	st.nbCov = make([][]float64, m)
	for ci, cell := range st.cells {
		if work >= nlCheckPoints {
			if work = 0; ctx.Err() != nil {
				return nil, nil
			}
		}
		grid.EachCellNear(cell.Coord, 1, func(nc spatial.Cell) {
			work++
			cj := int(st.cellOf[nc.Points[0]])
			if cj == ci {
				return
			}
			d := in.Norm.Dist(st.rep[ci], st.rep[cj])
			if d >= in.Radius {
				return
			}
			st.nbIdx[ci] = append(st.nbIdx[ci], int32(cj))
			st.nbCov[ci] = append(st.nbCov[ci], 1-d/in.Radius)
		})
	}
	return st, nil
}

// seedCells draws up to k distinct cells k-means++ style: the first
// proportionally to cell weight, each next proportionally to
// weight × (distance to nearest chosen representative)². Chosen cells get
// zero mass, so the draw never repeats; it stops early when no mass remains
// (fewer occupied cells than k, or all representatives coincide), or once
// ctx is done, which the first refine round then reports.
func (a NearLinear) seedCells(ctx context.Context, in *reward.Instance, st *nlState, k int, rng *xrand.Rand) []int {
	m := len(st.cells)
	first := sampleWeighted(rng, st.cellW)
	if first < 0 {
		return nil
	}
	seeds := make([]int, 0, k)
	seeds = append(seeds, first)
	minD := make([]float64, m)
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	mass := make([]float64, m)
	work := 0 // cell distances since ctx was last read
	for len(seeds) < k && len(seeds) < m {
		if work += m; work >= nlCheckPoints {
			if work = 0; ctx.Err() != nil {
				break
			}
		}
		last := st.rep[seeds[len(seeds)-1]]
		for c := 0; c < m; c++ {
			if d := in.Norm.Dist(st.rep[c], last); d < minD[c] {
				minD[c] = d
			}
			mass[c] = st.cellW[c] * minD[c] * minD[c]
		}
		next := sampleWeighted(rng, mass)
		if next < 0 {
			break
		}
		seeds = append(seeds, next)
	}
	return seeds
}

// nlCheckPoints is how many points, neighbour cells or cell distances snap
// and seedCells process between two reads of their context, as the
// first-round gain sweep reads its own (reward.Instance.RoundGains).
const nlCheckPoints = 1 << 16

// nlCenter is a scored candidate center.
type nlCenter struct {
	c    vec.V
	gain float64
}

// selectRound picks the round's center from a bounded exactly-scored pool:
// the nlTopCells occupied cells by approximate gain ĝ plus the round's seed
// cell; for each, both the cell representative and the heaviest-residual
// point. Ties break toward the earlier candidate, so selection is
// deterministic. Returns the winner and the number of exact scores spent.
func (a NearLinear) selectRound(in *reward.Instance, ex *reward.Instance, st *nlState, y []float64, seed int) (nlCenter, int) {
	type ranked struct {
		cell int
		ghat float64
	}
	top := make([]ranked, 0, nlTopCells)
	for c := range st.cells {
		g := st.resW[c]
		for x, cj := range st.nbIdx[c] {
			g += st.nbCov[c][x] * st.resW[cj]
		}
		// Insertion keeps top sorted by (ĝ desc, cell asc); the strict >
		// preserves the earlier (lower-index) cell on ties.
		if len(top) == cap(top) && g <= top[len(top)-1].ghat {
			continue
		}
		pos := len(top)
		for pos > 0 && g > top[pos-1].ghat {
			pos--
		}
		if len(top) < cap(top) {
			top = append(top, ranked{})
		}
		copy(top[pos+1:], top[pos:])
		top[pos] = ranked{cell: c, ghat: g}
	}
	pool := make([]int, 0, len(top)+1)
	for _, r := range top {
		pool = append(pool, r.cell)
	}
	if seed >= 0 {
		dup := false
		for _, c := range pool {
			if c == seed {
				dup = true
				break
			}
		}
		if !dup {
			pool = append(pool, seed)
		}
	}
	best := nlCenter{gain: math.Inf(-1)}
	scored := 0
	for _, c := range pool {
		for _, cand := range []vec.V{st.rep[c], heaviestResidual(in, st, y, c)} {
			if cand == nil {
				continue
			}
			g := ex.RoundGain(cand, y)
			scored++
			if g > best.gain {
				best = nlCenter{c: cand, gain: g}
			}
		}
	}
	if col := in.Collector(); col != nil {
		col.Count(obs.CtrNLCandidates, int64(scored))
	}
	return best, scored
}

// heaviestResidual returns the cell's point with the largest remaining
// single-point reward w_i·y_i (greedy 3's per-round pick restricted to the
// cell), or nil when the cell has no residual mass. Lower index wins ties.
func heaviestResidual(in *reward.Instance, st *nlState, y []float64, c int) vec.V {
	bestI, bestW := -1, 0.0
	for _, i := range st.cells[c].Points {
		if w := in.Set.Weight(i) * y[i]; w > bestW {
			bestI, bestW = i, w
		}
	}
	if bestI < 0 {
		return nil
	}
	return in.Set.Point(bestI)
}

// refineCenter runs the bounded local refinement: from the selected center,
// repeatedly propose the residual-weighted mean shift and the enclosing-ball
// re-centering of the residual support, keeping a proposal only when its
// exact gain strictly improves. Every accepted move is re-scored exactly, so
// refinement can only raise the committed gain. Returns the final center and
// the number of refinement steps taken.
func (a NearLinear) refineCenter(in *reward.Instance, ex *reward.Instance, st *nlState, y []float64, cur nlCenter, rng *xrand.Rand) (nlCenter, int) {
	rounds := a.Refine
	if rounds == 0 {
		rounds = DefaultRefineRounds
	}
	if rounds < 0 || cur.c == nil {
		return cur, 0
	}
	dim := in.Set.Dim()
	col := in.Collector()
	steps := 0
	for t := 0; t < rounds; t++ {
		// Residual support: points that receive positive coverage from the
		// current center and still have residual demand, in cell-sweep
		// order (by occupied cell, then index). The order fixes the
		// rounding of the sums and the enclosing ball's start point.
		cov := ex.CoveredIndices(cur.c)
		sort.SliceStable(cov, func(a, b int) bool { return st.cellOf[cov[a]] < st.cellOf[cov[b]] })
		var pts []vec.V
		shift := vec.New(dim)
		var mass float64
		for _, i := range cov {
			wy := in.Set.Weight(i) * y[i]
			if wy <= 0 {
				continue
			}
			p := in.Set.Point(i)
			pts = append(pts, p)
			mass += wy
			for d := 0; d < dim; d++ {
				shift[d] += wy * p[d]
			}
		}
		if len(pts) == 0 || mass <= 0 {
			break
		}
		steps++
		if col != nil {
			col.Count(obs.CtrNLRefineSteps, 1)
		}
		cands := make([]vec.V, 0, 2)
		cands = append(cands, shift.ScaleInPlace(1/mass))
		if ball, err := enclosingCenter(in.Norm, pts, rng, col); err == nil {
			cands = append(cands, ball)
		}
		improved := false
		for _, cand := range cands {
			if g := ex.RoundGain(cand, y); g > cur.gain {
				cur = nlCenter{c: cand, gain: g}
				improved = true
			}
		}
		if !improved {
			break
		}
		if col != nil {
			col.Count(obs.CtrNLRefineAccepts, 1)
		}
	}
	return cur, steps
}

// enclosingCenter returns the center of an enclosing ball of the support:
// Badoiu–Clarkson (bounded-iteration coreset, internal/geom) for large
// Euclidean supports, the exact norm-dispatched ball otherwise.
func enclosingCenter(n norm.Norm, pts []vec.V, rng *xrand.Rand, c obs.Collector) (vec.V, error) {
	if _, euclid := n.(norm.L2); euclid && len(pts) > nlWelzlCutoff {
		ball, err := geom.ApproxMinBall2(pts, 0.1, c)
		if err != nil {
			return nil, err
		}
		return ball.Center, nil
	}
	ball, err := geom.EnclosingBall(n, pts, rng, c)
	if err != nil {
		return nil, err
	}
	return ball.Center, nil
}

// sampleWeighted draws an index proportionally to the non-negative weights,
// returning -1 when no mass is available. The cumulative scan is in index
// order, so the draw is deterministic per rng state.
func sampleWeighted(rng *xrand.Rand, ws []float64) int {
	var total float64
	for _, w := range ws {
		if w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
			total += w
		}
	}
	if total <= 0 || math.IsInf(total, 1) || math.IsNaN(total) {
		return -1
	}
	r := rng.Float64() * total
	var acc float64
	last := -1
	for i, w := range ws {
		if w <= 0 || math.IsInf(w, 1) || math.IsNaN(w) {
			continue
		}
		acc += w
		last = i
		if r < acc {
			return i
		}
	}
	return last
}
