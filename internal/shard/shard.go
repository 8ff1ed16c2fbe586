// Package shard turns the monolithic solve into a spatial
// partition → shard-solve → merge pipeline. The paper's greedy solvers scan
// every user per round, which caps single-box throughput; this package
// splits an instance into balanced spatial shards by reusing the grid
// index's cell bucketing (cells of side r, the coverage radius), solves each
// shard independently with any registry solver, and hands the union of
// per-shard candidate centers to core.Pipeline's lazy-greedy merge, which
// re-scores them against the full instance. Submodularity of the coverage
// objective bounds the merge loss; the quality-regression test pins the
// sharded objective at ≥ 0.95× single-shot greedy.
//
// Two design points matter for reproducibility:
//
//   - Shard identity is content-derived: a shard's ID hashes its anchor
//     cell's integer coordinates, never its slice position, so per-shard
//     solver seeds (DeriveSeed) are independent of enumeration order and
//     worker scheduling. Changing the shard count changes the partition —
//     and therefore results — but re-running the same configuration is
//     bit-identical at any Workers setting.
//
//   - A boundary halo (Halo rings of grid cells, default one ring = one
//     coverage radius in Chebyshev distance) is absorbed into each shard, so
//     a candidate center near a cut plane still sees the users just across
//     it and is scored fairly. Halo points are duplicated, not moved; the
//     merge re-scores every candidate against the full instance, so the
//     duplication can only improve candidate quality, never double-count
//     reward.
package shard

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/reward"
	"repro/internal/spatial"
	"repro/internal/xrand"
)

// DefaultHaloRings is the boundary-halo width, in grid-cell rings, applied
// when Options.Halo is zero. One ring of cells of side r covers every point
// within Chebyshev distance r of a shard cell — exactly the points a
// boundary candidate's coverage ball can reach.
const DefaultHaloRings = 1

// Options configures the sharded solver.
type Options struct {
	// Shards is the target shard count (capped by the number of occupied
	// grid cells; <= 1 degenerates to the single-shot pipeline).
	Shards int
	// Halo is the boundary-halo width in cell rings: 0 means
	// DefaultHaloRings, negative disables the halo entirely.
	Halo int
	// Workers bounds the parallel shard solves; <= 0 uses all CPUs.
	Workers int
	// Seed is the root seed; per-shard seeds derive from it and the shard's
	// content-derived ID via DeriveSeed.
	Seed uint64
	// Remote, when non-nil, is tried first for every shard solve (cluster
	// mode's peer-forwarding seam); a failure falls back to the local inner
	// solver with identical results per the core.PartSolver contract.
	Remote core.PartSolver
}

// HaloRings normalizes a raw Halo knob into a ring count: 0 means
// DefaultHaloRings, negative disables the halo entirely. It is the single
// normalization point — Options and Partitioner both resolve their Halo
// fields through it, so a future change to the knob's semantics cannot
// diverge the two paths.
func HaloRings(halo int) int {
	switch {
	case halo == 0:
		return DefaultHaloRings
	case halo < 0:
		return 0
	default:
		return halo
	}
}

// NewSolver builds the sharded pipeline around an inner registry algorithm:
// innerName is the inner solver's catalog name (for display), newInner
// constructs it for a derived per-shard seed. The result is a
// core.Algorithm named "sharded(<innerName>)" honoring the anytime
// cancellation contract via core.Pipeline.
func NewSolver(innerName string, newInner func(seed uint64) core.Algorithm, o Options) core.Algorithm {
	root := o.Seed
	return core.Pipeline{
		Alg:       "sharded(" + innerName + ")",
		Partition: Partitioner{Shards: o.Shards, Halo: o.Halo},
		NewSolver: newInner,
		SeedFor:   func(partID uint64) uint64 { return DeriveSeed(root, partID) },
		Workers:   o.Workers,
		SolvePart: o.Remote,
	}
}

// DeriveSeed mixes the root seed with a shard's content-derived ID into the
// shard's solver seed. It is a pure function of (root, partID): shard
// enumeration order, worker count, and scheduling cannot perturb it — only
// an actual change of the partition (different shard count or population)
// changes the IDs and hence the seeds.
func DeriveSeed(root, partID uint64) uint64 {
	// Golden-ratio scramble of the ID keeps adjacent anchor-cell hashes far
	// apart, then one SplitMix64 step finalizes the mix.
	return xrand.New(root ^ (partID * 0x9e3779b97f4a7c15)).Uint64()
}

// Partitioner splits an instance into balanced spatial shards via the grid
// index's cell bucketing. It implements core.Partitioner.
type Partitioner struct {
	// Shards is the target shard count.
	Shards int
	// Halo is the boundary-halo width in cell rings (0 = DefaultHaloRings,
	// negative = none).
	Halo int
}

// Partition implements core.Partitioner: bucket the points into grid cells
// of side r, sweep the occupied cells in lexicographic (row-major) order,
// cut the sweep into Shards contiguous runs of roughly n/Shards points, and
// build one sub-instance per run (own points plus the halo ring absorbed
// from neighboring cells, ascending). Deterministic by construction: cell
// order, cut points, per-shard index order, and IDs depend only on the
// instance and the configuration.
func (p Partitioner) Partition(ctx context.Context, in *reward.Instance, k int) ([]core.Part, error) {
	if in == nil {
		return nil, core.ErrNilInstance
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	n := in.N()
	s := p.Shards
	if s < 1 {
		s = 1
	}
	if s == 1 || n <= s {
		return []core.Part{{ID: 0, In: in, Own: n}}, nil
	}
	grid, err := in.Grid()
	if err != nil {
		return nil, fmt.Errorf("shard: partition grid: %w", err)
	}
	cells := grid.Cells()
	if len(cells) < s {
		s = len(cells)
	}
	if s == 1 {
		return []core.Part{{ID: 0, In: in, Own: n}}, nil
	}

	runs := splitRuns(cells, n, s)
	idx, own := partIndices(grid, runs, HaloRings(p.Halo))
	parts := make([]core.Part, len(runs))
	for r, run := range runs {
		// A collector-less sub-instance, indexed as NewIndexed decides, with
		// its anchor (lexicographically smallest) cell's hash as its ID.
		// Building it copies the part and may build its grid, so the
		// context is read before each of the two.
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		sub, err := in.Set.Subset(idx[r])
		if err != nil {
			return nil, fmt.Errorf("shard: subset: %w", err)
		}
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		subIn, err := reward.NewIndexed(sub, in.Norm, in.Radius, nil)
		if err != nil {
			return nil, fmt.Errorf("shard: sub-instance: %w", err)
		}
		parts[r] = core.Part{ID: cellHash(run[0].Coord), In: subIn, Own: own[r]}
	}
	return parts, nil
}

// splitRuns linearly partitions the row-major cell sweep into s contiguous
// runs of about n/s points each, as subslices of cells. The sweep order
// keeps shards spatially coherent; the forced cut (leave one cell per
// remaining shard) guarantees exactly s non-empty runs. Deterministic:
// depends only on the cell order and point counts.
func splitRuns(cells []spatial.Cell, n, s int) [][]spatial.Cell {
	runs := make([][]spatial.Cell, 0, s)
	start, cum := 0, 0
	for i, c := range cells {
		cum += len(c.Points)
		remaining := len(cells) - i - 1
		if len(runs) < s-1 &&
			(cum*s >= (len(runs)+1)*n || remaining == s-len(runs)-1) {
			runs = append(runs, cells[start:i+1:i+1])
			start = i + 1
		}
	}
	return append(runs, cells[start:])
}

// partIndices returns every run's part: the ascending indices of the points
// in its own cells and in every occupied cell within rings of one of them,
// each list at exact size (cap == len), and the count of its own points.
// It records which parts hold each occupied cell, sizes every part from its
// cells' counts, and then fills all lists in one ascending pass over the
// grid's cell positions, so they come out sorted without a sort in
// O(n + Σ part sizes), however many parts there are.
func partIndices(grid *spatial.Grid, runs [][]spatial.Cell, rings int) (idx [][]int, own []int) {
	cells, cellOf := grid.Cells(), grid.CellOf()
	holders := make([][]int32, len(cells)) // the parts holding each cell, ascending
	size := make([]int, len(runs))
	own = make([]int, len(runs))
	for r, run := range runs {
		hold := func(c spatial.Cell) {
			// Buckets are disjoint, so a cell's first point names it.
			j := cellOf[c.Points[0]]
			if h := holders[j]; len(h) == 0 || h[len(h)-1] != int32(r) {
				holders[j] = append(h, int32(r))
				size[r] += len(c.Points)
			}
		}
		for _, c := range run {
			hold(c)
		}
		own[r] = size[r]
		for _, c := range run {
			grid.EachCellNear(c.Coord, rings, hold)
		}
	}
	idx = make([][]int, len(runs))
	for r := range idx {
		idx[r] = make([]int, 0, size[r])
	}
	for i, j := range cellOf {
		for _, r := range holders[j] {
			idx[r] = append(idx[r], i)
		}
	}
	return idx, own
}

// cellHash is an FNV-1a hash over a cell's integer coordinates — the stable
// shard identity DeriveSeed consumes.
func cellHash(coord []int) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range coord {
		v := uint64(int64(c))
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	return h
}

// ctxErr tolerates a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

var _ core.Partitioner = Partitioner{}
