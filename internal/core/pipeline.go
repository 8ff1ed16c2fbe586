package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/reward"
	"repro/internal/vec"
)

// Part is one shard of a partitioned instance: a sub-instance (the shard's
// points, plus any boundary halo the partitioner absorbed from its
// neighbors) together with a stable content-derived identity. The ID must
// depend only on what the shard covers — never on enumeration order or
// worker scheduling — because per-shard solver seeds are derived from it.
type Part struct {
	// ID is the shard's stable identity (e.g. a hash of its anchor grid
	// cell). Two runs that partition the same instance the same way must
	// assign the same IDs regardless of goroutine scheduling.
	ID uint64
	// In is the shard's sub-instance. It must share the parent instance's
	// norm and radius.
	In *reward.Instance
	// Own is the number of points the shard owns (excluding halo
	// duplicates); 0 means unknown/no halo accounting.
	Own int
}

// Partitioner splits an instance into parts for the pipeline. A partitioner
// must be deterministic: the same instance always yields the same parts in
// the same order, with the same IDs.
type Partitioner interface {
	Partition(ctx context.Context, in *reward.Instance, k int) ([]Part, error)
}

// PartSolver solves one part of a partitioned instance — possibly somewhere
// else. It is the remote-solve seam of the pipeline's shard-solve stage: the
// cluster layer (internal/clusterd) installs a PartSolver that forwards the
// part's sub-instance to a peer node over the wire and returns the peer's
// candidate centers.
//
// Contract: a PartSolver must return exactly the centers the local inner
// algorithm (Pipeline.NewSolver(seed)) would have produced for the same
// (part, seed, k) — remote solvers achieve this by running the same
// deterministic algorithm under the same derived seed — so routing never
// changes the merge input. An error is a routing failure, not a result: the
// pipeline falls back to solving the part locally, which by the same
// contract yields an identical result.
type PartSolver func(ctx context.Context, part Part, seed uint64, k int) ([]vec.V, error)

// Pipeline is the partition → shard-solve → merge seam every solve now flows
// through conceptually: the classic single-shot solvers are the trivial
// one-part case (nil Partition), and the sharded solver (internal/shard)
// plugs in a spatial partitioner without touching the orchestration.
//
// Run partitions the instance, solves every part in parallel with an inner
// algorithm (seeded per part via SeedFor so results are independent of
// enumeration order), concatenates the per-part candidate centers in part
// order, and lazily re-scores the union against the full instance with a
// greedy merge. The merge reuses the residual telescoping-gain machinery
// (reward.RoundGain/ApplyRound) under a CELF heap, so each merge round costs
// a handful of candidate re-evaluations instead of a rescan — submodularity
// makes stale bounds valid upper bounds, exactly as in LazyGreedy.
//
// Anytime contract: a cancellation during partitioning (a partitioner error
// that arrives with ctx done) or the shard solves returns the empty result
// (the trivial valid prefix — nothing has been committed yet) with
// ctx.Err(); a cancellation mid-merge returns the merge rounds committed so
// far, which are bit-for-bit the prefix an uncancelled run would have
// selected.
//
// Telemetry goes to the instance's collector: the shard.partition,
// shard.solve (one per part) and shard.merge stages, the shard.* counters,
// and the merge's rounds.
// Each part is solved on a collector-less copy of its instance, so the
// merge's rounds are the solve's only rounds.
type Pipeline struct {
	// Alg is the reported algorithm name (e.g. "sharded(greedy2-lazy)");
	// empty defaults to "pipeline".
	Alg string
	// Partition splits the instance; nil runs the trivial single-part case.
	Partition Partitioner
	// NewSolver constructs the inner per-part algorithm for a derived seed.
	NewSolver func(seed uint64) Algorithm
	// SeedFor derives a part's solver seed from its stable ID; nil uses the
	// ID itself. internal/shard installs a root-seed mixing hash here.
	SeedFor func(partID uint64) uint64
	// SolvePart, when non-nil, is tried first for every part (the remote
	// seam: cluster mode installs a peer-forwarding solver here). On error
	// with a live context the pipeline falls back to the local NewSolver,
	// which the PartSolver contract guarantees yields identical centers.
	SolvePart PartSolver
	// Workers bounds the parallel part solves; <= 0 uses all CPUs.
	Workers int
}

// Name implements Algorithm.
func (p Pipeline) Name() string {
	if p.Alg == "" {
		return "pipeline"
	}
	return p.Alg
}

// Run implements Algorithm.
func (p Pipeline) Run(ctx context.Context, in *reward.Instance, k int) (*Result, error) {
	if err := checkArgs(in, k); err != nil {
		return nil, err
	}
	if p.NewSolver == nil {
		return nil, errors.New("core: pipeline needs a NewSolver constructor")
	}
	ctx = orBG(ctx)
	res := &Result{Algorithm: p.Name()}
	col := in.Collector()
	if err := ctx.Err(); err != nil {
		return CancelRun(col, res, err)
	}

	// Stage 1: partition. A partitioner reads ctx between the parts it
	// builds; an error that arrives with ctx done is that cancellation, and
	// the empty result is its valid prefix.
	pspan := obs.StartStage(ctx, col, obs.StageShardPartition)
	parts, err := p.partition(ctx, in, k)
	if err != nil {
		pspan.SetAttr("failed", 1)
		pspan.End()
		if cerr := ctx.Err(); cerr != nil {
			return CancelRun(col, res, cerr)
		}
		return nil, err
	}
	halo := 0
	for _, part := range parts {
		if part.Own > 0 {
			halo += part.In.N() - part.Own
		}
	}
	pspan.SetAttr("parts", float64(len(parts)))
	pspan.SetAttr("halo_points", float64(halo))
	pspan.End()
	if col != nil {
		col.Count(obs.CtrShardParts, int64(len(parts)))
		col.Count(obs.CtrShardHaloPoints, int64(halo))
	}

	// Stage 2: solve every part in parallel. Candidates land in per-part
	// slots and are concatenated in part order, so the merge's input — and
	// therefore the final result — never depends on completion order.
	cands := make([][]vec.V, len(parts))
	errs := make([]error, len(parts))
	workers := p.Workers
	if p.SolvePart != nil && workers <= 0 {
		// Remote part solves are network-bound, not CPU-bound: fan out one
		// goroutine per part so forwards overlap even on a single-CPU
		// coordinator. Results are bit-identical at any worker count, so
		// this only changes wall time (and lets concurrent forwards spread
		// across peers instead of serializing onto one).
		workers = len(parts)
	}
	parallel.For(ctx, len(parts), workers, nil, func(i int) {
		part := parts[i]
		// A partitioner may hand back the parent instance itself.
		part.In = part.In.WithCollector(nil)
		sspan := obs.StartStage(ctx, col, obs.StageShardSolve)
		sspan.SetAttr("shard", float64(i))
		sspan.SetAttr("n", float64(part.In.N()))
		sctx := obs.ContextWithSpan(ctx, sspan)
		seed := part.ID
		if p.SeedFor != nil {
			seed = p.SeedFor(part.ID)
		}
		kk := k
		if n := part.In.N(); kk > n {
			kk = n
		}
		if p.SolvePart != nil {
			cs, rerr := p.SolvePart(sctx, part, seed, kk)
			if rerr == nil {
				cands[i] = cs
				sspan.SetAttr("remote", 1)
				sspan.SetAttr("rounds", float64(len(cs)))
				sspan.End()
				return
			}
			if ctx.Err() != nil {
				sspan.End()
				return
			}
			// Routing failure: fall through to the local solve below, which
			// the PartSolver contract guarantees yields identical centers.
			sspan.SetAttr("remote_failed", 1)
		}
		alg := p.NewSolver(seed)
		r, err := alg.Run(sctx, part.In, kk)
		if err != nil && ctx.Err() == nil {
			errs[i] = err
			sspan.SetAttr("failed", 1)
			sspan.End()
			return
		}
		if r != nil {
			cands[i] = r.Centers
			sspan.SetAttr("rounds", float64(len(r.Gains)))
			sspan.SetAttr("total", r.Total)
		}
		sspan.End()
	})
	if err := ctx.Err(); err != nil {
		// Cancelled before the merge committed anything: the empty result
		// is the (trivial) valid prefix of the uncancelled run.
		return CancelRun(col, res, err)
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("core: pipeline shard %d: %w", i, e)
		}
	}
	if col != nil {
		col.Count(obs.CtrShardSolves, int64(len(parts)))
	}
	flat := dedupCenters(cands)
	if len(flat) == 0 {
		return nil, errors.New("core: pipeline produced no candidate centers")
	}
	if col != nil {
		col.Count(obs.CtrShardCandidates, int64(len(flat)))
	}

	// Stage 3: lazy-greedy merge against the full instance.
	mspan := obs.StartStage(ctx, col, obs.StageShardMerge)
	mspan.SetAttr("candidates", float64(len(flat)))
	res, err = p.merge(obs.ContextWithSpan(ctx, mspan), in, flat, k, res)
	mspan.SetAttr("rounds", float64(len(res.Gains)))
	mspan.SetAttr("total", res.Total)
	mspan.End()
	if err != nil {
		// merge only errors on cancellation; res holds the committed prefix.
		return CancelRun(col, res, err)
	}
	return res, nil
}

// dedupCenters concatenates per-part candidate centers in part order,
// dropping exact coordinate duplicates (halo overlap makes neighboring
// shards nominate the same data point). First occurrence wins, so the
// surviving order is still deterministic.
func dedupCenters(cands [][]vec.V) []vec.V {
	total := 0
	for _, cs := range cands {
		total += len(cs)
	}
	seen := make(map[string]struct{}, total)
	out := make([]vec.V, 0, total)
	var key []byte
	for _, cs := range cands {
		for _, c := range cs {
			key = key[:0]
			for _, x := range c {
				key = appendF64Key(key, x)
			}
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
			out = append(out, c)
		}
	}
	return out
}

// appendF64Key appends the raw bit pattern of x, so 0.0 and -0.0 — distinct
// inputs — never collide.
func appendF64Key(b []byte, x float64) []byte {
	u := math.Float64bits(x)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// partition runs the configured partitioner, or the trivial single-part
// case: the full instance as one shard with ID 0.
func (p Pipeline) partition(ctx context.Context, in *reward.Instance, k int) ([]Part, error) {
	if p.Partition == nil {
		return []Part{{ID: 0, In: in, Own: in.N()}}, nil
	}
	parts, err := p.Partition.Partition(ctx, in, k)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, errors.New("core: partitioner returned no parts")
	}
	return parts, nil
}

// merge greedily selects up to k centers from the candidate union,
// re-scored against the full instance through the residual bookkeeping
// (RoundGain/ApplyRound) with lazy CELF re-evaluation: a candidate's gain
// from an earlier round is a valid upper bound (gains only shrink as
// residuals decrease), so most rounds re-evaluate a handful of heap tops
// instead of every candidate. Each committed round is the standard round
// stage, so a served sharded solve reports its merge rounds exactly like a
// single-shot solve reports its rounds.
func (p Pipeline) merge(ctx context.Context, in *reward.Instance, cands []vec.V, k int, res *Result) (*Result, error) {
	y := in.NewResiduals()
	h := make(candHeap, 0, len(cands))
	rounds := k
	if rounds > len(cands) {
		rounds = len(cands)
	}
	for j := 0; j < rounds; j++ {
		if err := ctx.Err(); err != nil {
			// Mid-merge cancellation: the committed rounds are bit-for-bit
			// the prefix the uncancelled merge would have selected.
			return res, err
		}
		rs := startRound(ctx, in.Collector(), p.Name(), j+1)
		if j == 0 {
			// Initial bounds, inside round 1 so its wall time includes
			// them.
			for i, c := range cands {
				h = append(h, candEntry{bound: in.RoundGain(c, y), idx: int32(i)})
			}
			heap.Init(&h)
		}
		repops := 0
		for h[0].round != int32(j) {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			h[0].bound = in.RoundGain(cands[h[0].idx], y)
			h[0].round = int32(j)
			heap.Fix(&h, 0)
			repops++
		}
		best := heap.Pop(&h).(candEntry) // unlike LazyGreedy, chosen candidates leave the pool
		c := cands[best.idx].Clone()
		gain := in.ApplyRound(c, y)
		evals := repops
		if j == 0 {
			evals += len(cands)
		}
		if rs.active() {
			rs.c.Count(obs.CtrShardMergeRepops, int64(repops))
			rs.c.Count(obs.CtrCandidates, int64(evals))
		}
		rs.commit(res, c, gain, map[string]float64{
			"repops":     float64(repops),
			"candidates": float64(evals),
		})
	}
	return res, nil
}

var _ Algorithm = Pipeline{}
