// Package exhaustive computes the paper's "exhaustive reward" baseline: the
// exact maximum of the objective f(C) (Eq. 7) over all k-subsets of a finite
// candidate set. The candidate set is the n data points, optionally enriched
// with a uniform lattice over the region, and each selected center can
// optionally be polished by continuous coordinate ascent. The search
// precomputes the candidate-by-point coverage matrix and enumerates subsets
// in parallel, partitioned by the first chosen index.
package exhaustive

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/parallel"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/solver"
	"repro/internal/vec"
)

// Name is the baseline's identifier in the solver registry: Solve is also
// reachable as solver.New("exhaustive", opts), with the exhaustive-specific
// knobs (GridPer, Box, Polish, DisablePrune) read from the same unified
// Options the greedy constructors take.
const Name = "exhaustive"

func init() {
	if err := solver.Register(solver.Entry{
		Name:    Name,
		Summary: "exact baseline: best k-subset of the candidate set (optionally lattice-enriched and polished)",
		New: func(o solver.Options) core.Algorithm {
			return algorithm{opt: o}
		},
	}); err != nil {
		panic(err)
	}
}

// algorithm adapts Solve to the core.Algorithm interface so the baseline is
// a first-class catalog entry. The options are captured at construction;
// solver.New applies the WarmStart wrapping like for any other entry, and a
// cut-short search reports its cancellation to the instance's collector.
type algorithm struct{ opt solver.Options }

// Name implements core.Algorithm.
func (algorithm) Name() string { return Name }

// Run implements core.Algorithm by delegating to Solve.
func (a algorithm) Run(ctx context.Context, in *reward.Instance, k int) (*core.Result, error) {
	return Solve(ctx, in, k, a.opt)
}

// Solve returns the best center set found. Of opt it reads GridPer (a
// uniform lattice added to the candidate set), Box (the lattice's bounds;
// zero is the data bounds), Polish (block coordinate ascent on the winner),
// DisablePrune and Workers. The returned Result's Gains are the per-round
// gains obtained by committing the centers in order, so Total equals the
// objective value f(C*).
//
// Solve is anytime under cancellation: the enumeration checks ctx at
// combination-prefix granularity (every extension of a partial subset), so
// a cancelled call stops within one prefix step per worker and returns the
// best complete k-subset found so far — committed into a validating Result
// (possibly empty when cancellation precedes the first complete subset) —
// together with ctx.Err(). Polishing is skipped on cancellation. A nil ctx
// behaves like context.Background().
func Solve(ctx context.Context, in *reward.Instance, k int, opt solver.Options) (*core.Result, error) {
	if in == nil {
		return nil, errors.New("exhaustive: nil instance")
	}
	if k <= 0 {
		return nil, fmt.Errorf("exhaustive: k = %d must be positive", k)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cands, err := candidates(in, opt)
	if err != nil {
		return nil, err
	}
	if k > len(cands) {
		return nil, fmt.Errorf("exhaustive: k = %d exceeds %d candidates", k, len(cands))
	}
	n := in.N()

	// Coverage matrix: cov[c][i] = [1 − d(cand_c, x_i)/r]_+.
	cov := make([][]float64, len(cands))
	if cerr := parallel.For(ctx, len(cands), opt.Workers, nil, func(c int) {
		row := make([]float64, n)
		for i := 0; i < n; i++ {
			row[i] = in.Coverage(cands[c], i)
		}
		cov[c] = row
	}); cerr != nil {
		// Cancelled during the precompute: no subset was evaluated yet, so
		// the best-so-far solution is the empty one.
		return core.CancelRun(in.Collector(), &core.Result{Algorithm: Name}, cerr)
	}
	weights := in.Set.Weights()

	// Optimistic bound per candidate: its standalone weighted coverage is
	// the most any single slot can add (submodularity). suffixMax[c] is
	// the best standalone gain among candidates >= c, enabling an early
	// break in the ascending-index enumeration.
	var suffixMax []float64
	if !opt.DisablePrune {
		suffixMax = make([]float64, len(cands)+1)
		for c := len(cands) - 1; c >= 0; c-- {
			var g float64
			for i := 0; i < n; i++ {
				g += weights[i] * cov[c][i]
			}
			suffixMax[c] = math.Max(g, suffixMax[c+1])
		}
	}

	// Parallel enumeration partitioned by the first chosen candidate. Each
	// partition keeps its own incumbent so a cancelled run can still merge
	// the complete subsets it managed to evaluate.
	done := ctx.Done()
	type partBest struct {
		val   float64
		combo []int
	}
	firsts := len(cands) - k + 1
	bests := make([]partBest, firsts)
	for i := range bests {
		bests[i].val = math.Inf(-1)
	}
	cancelErr := parallel.For(ctx, firsts, opt.Workers, nil, func(first int) {
		b := partBest{val: math.Inf(-1)}
		combo := make([]int, k)
		combo[0] = first
		frac := make([]float64, n)
		copy(frac, cov[first])
		var val float64
		for i := 0; i < n; i++ {
			f := frac[i]
			if f > 1 {
				f = 1
			}
			val += weights[i] * f
		}
		enumerate(done, cov, weights, suffixMax, combo, 1, frac, val, &b.val, &b.combo)
		bests[first] = b
	})
	best := -1
	for i := 0; i < firsts; i++ {
		if bests[i].combo != nil && (best < 0 || bests[i].val > bests[best].val) {
			best = i
		}
	}
	if best < 0 {
		// Cancelled before any complete k-subset was scored.
		return core.CancelRun(in.Collector(), &core.Result{Algorithm: Name}, cancelErr)
	}
	centers := make([]vec.V, k)
	for j, c := range bests[best].combo {
		centers[j] = cands[c].Clone()
	}

	if opt.Polish && cancelErr == nil {
		centers = polish(in, centers)
	}

	// Re-derive per-round gains by committing the centers in order.
	y := in.NewResiduals()
	res := &core.Result{Algorithm: Name}
	for _, c := range centers {
		g := in.ApplyRound(c, y)
		res.Centers = append(res.Centers, c)
		res.Gains = append(res.Gains, g)
		res.Total += g
	}
	if cancelErr != nil {
		return core.CancelRun(in.Collector(), res, cancelErr)
	}
	return res, nil
}

// enumerate recursively extends combo[:depth] with candidates having larger
// indices, carrying the accumulated per-point fraction sums and the partial
// objective value. With suffixMax non-nil it prunes: once the partial value
// plus (slots left)·(best remaining standalone gain) cannot beat the
// incumbent, the ascending-index loop can stop (suffixMax is non-increasing).
// A closed done channel stops the recursion at the next prefix extension,
// leaving the caller's incumbent as the partition's best-so-far.
func enumerate(done <-chan struct{}, cov [][]float64, weights, suffixMax []float64, combo []int, depth int, frac []float64, val float64, bestVal *float64, bestCombo *[]int) {
	k := len(combo)
	if depth == k {
		if val > *bestVal {
			*bestVal = val
			*bestCombo = append((*bestCombo)[:0], combo...)
		}
		return
	}
	n := len(frac)
	next := make([]float64, n)
	slotsLeft := float64(k - depth)
	for c := combo[depth-1] + 1; c <= len(cov)-(k-depth); c++ {
		select {
		case <-done:
			return
		default:
		}
		if suffixMax != nil && val+slotsLeft*suffixMax[c] <= *bestVal {
			return
		}
		row := cov[c]
		nv := val
		for i := 0; i < n; i++ {
			f0 := frac[i]
			f1 := f0 + row[i]
			next[i] = f1
			if f0 > 1 {
				f0 = 1
			}
			if f1 > 1 {
				f1 = 1
			}
			nv += weights[i] * (f1 - f0)
		}
		combo[depth] = c
		enumerate(done, cov, weights, suffixMax, combo, depth+1, next, nv, bestVal, bestCombo)
	}
}

// polish runs a few sweeps of block coordinate ascent: each center in turn
// is refined by compass search on the residual problem induced by freezing
// the others. The objective is non-decreasing throughout.
func polish(in *reward.Instance, centers []vec.V) []vec.V {
	cur := in.Objective(centers)
	for sweep := 0; sweep < 3; sweep++ {
		improved := false
		for j := range centers {
			// Residuals from all centers except j.
			y := in.NewResiduals()
			for jj, c := range centers {
				if jj != j {
					in.ApplyRound(c, y)
				}
			}
			nc, _ := optimize.CompassSearch(in, y, centers[j], in.Radius/2, in.Radius*1e-3)
			trial := centers[j]
			centers[j] = nc
			if v := in.Objective(centers); v > cur+1e-12 {
				cur = v
				improved = true
			} else {
				centers[j] = trial
			}
		}
		if !improved {
			break
		}
	}
	return centers
}

// candidates assembles the candidate centers: every data point plus the
// optional enrichment lattice.
func candidates(in *reward.Instance, opt solver.Options) ([]vec.V, error) {
	cands := in.Set.Points()
	if opt.GridPer > 0 {
		box := opt.Box
		if !box.Valid() {
			lo, hi := in.Set.Bounds()
			box = pointset.Box{Lo: lo, Hi: hi}
		}
		if box.Dim() != in.Set.Dim() {
			return nil, fmt.Errorf("exhaustive: box dim %d != instance dim %d", box.Dim(), in.Set.Dim())
		}
		grid, err := pointset.GridPoints(box, opt.GridPer)
		if err != nil {
			return nil, err
		}
		cands = append(cands, grid...)
	}
	return cands, nil
}

// Combinations reports C(n, k) as a float64 (used by the CLI to warn before
// enormous enumerations).
func Combinations(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	v := 1.0
	for i := 0; i < k; i++ {
		v = v * float64(n-i) / float64(i+1)
	}
	return v
}
