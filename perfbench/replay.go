package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime/metrics"
	"sync"
	"time"

	v1 "repro/api/v1"
	"repro/internal/broadcast"
	"repro/internal/cache"
	"repro/internal/clusterd"
	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/shard"
	"repro/internal/solver"
	"repro/internal/spatial"
	"repro/internal/trace"
	"repro/internal/vec"
)

// The handler's layers run inside the server, where the benchmark adds no
// code. The replayer times them by running a request's body through the
// same public calls, in the handler's order, in this process, with one
// span per call:
//
//	decode (api/v1) → fingerprint (cache) → new_instance (reward) →
//	new_grid (spatial) → solve (core: partition (shard), part_solve (core)
//	or forward (clusterd), the rest is the merge) → encode (api/v1)
//
// and a churn body through broadcast.RunChurn with a span per period.
type replayer struct {
	rt *tracer
	// cl, when set, is the target's Cluster: shard solves are forwarded to
	// its peers exactly as the target forwards them.
	cl *clusterd.Cluster
}

// replayStats holds what one replay measured beyond its spans.
type replayStats struct {
	partAlloc uint64 // heap bytes allocated from the partition's end to the last part's end
	match     bool   // the replay reproduced the served answer bit for bit
}

// heapAllocs is the process's cumulative heap allocation, read without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// call runs fn inside a span and records the bytes it allocated.
func (rp *replayer) call(parent int, id, name, layer string, fn func() error) error {
	sp := rp.rt.begin(parent, id, name, layer)
	a0 := heapAllocs()
	err := fn()
	rp.rt.setAlloc(sp, heapAllocs()-a0)
	rp.rt.end(sp)
	return err
}

func (rp *replayer) replay(ctx context.Context, o *outcome) (*replayStats, error) {
	if o.r.kind == kindChurn {
		return rp.churn(ctx, o)
	}
	return rp.solve(ctx, o)
}

func (rp *replayer) solve(ctx context.Context, o *outcome) (*replayStats, error) {
	id := o.id
	root := rp.rt.begin(0, id, "replay", "")
	defer rp.rt.end(root)
	st := &replayStats{}

	var req v1.SolveRequest
	if err := rp.call(root, id, "decode", "api/v1", func() error {
		return json.Unmarshal(o.r.body, &req)
	}); err != nil {
		return nil, fmt.Errorf("replay decode: %w", err)
	}
	normName := req.Norm
	if normName == "" {
		normName = "l2"
	}
	_ = rp.call(root, id, "fingerprint", "cache", func() error {
		cache.Fingerprint(req.Instance, cache.SolveParams{
			Norm: normName, Radius: req.Radius, K: req.K, Solver: req.Solver,
			Seed: req.Options.Seed, GridPer: req.Options.GridPer,
			BoxLo: req.Options.BoxLo, BoxHi: req.Options.BoxHi,
			Polish: req.Options.Polish, DisablePrune: req.Options.DisablePrune,
			WarmStart: req.Options.WarmStart, Shards: req.Options.Shards,
			Halo: req.Options.Halo, Refine: req.Options.Refine,
		})
		return nil
	})
	if o.cached() {
		// A hit is answered straight from the cache: no solve, one encode.
		st.match = true
		return st, rp.call(root, id, "encode", "api/v1", func() error {
			_, err := json.Marshal(o.resp)
			return err
		})
	}

	nm, err := norm.ByName(normName)
	if err != nil {
		return nil, err
	}
	var in *reward.Instance
	if err := rp.call(root, id, "new_instance", "reward", func() (err error) {
		in, err = reward.NewInstance(req.Instance, nm, req.Radius)
		return err
	}); err != nil {
		return nil, err
	}
	_ = rp.call(root, id, "new_grid", "spatial", func() error {
		if g, err := spatial.NewGrid(req.Instance.Points(), req.Radius); err == nil {
			in.SetFinder(g)
		}
		return nil
	})

	var res *core.Result
	solveSpan := rp.rt.begin(root, id, "solve", "core")
	a0 := heapAllocs()
	alg, err := rp.algorithm(solveSpan, id, &req, normName, st)
	if err == nil {
		res, err = alg.Run(ctx, in, req.K)
	}
	rp.rt.setAlloc(solveSpan, heapAllocs()-a0)
	rp.rt.end(solveSpan)
	if err != nil {
		return nil, fmt.Errorf("replay solve: %w", err)
	}
	st.match = sameCenters(res.Centers, o.resp.Centers)

	resp := v1.SolveResponse{
		RequestID: id, Solver: req.Solver, Norm: normName, K: req.K, Radius: req.Radius,
		N: in.N(), Centers: wireCenters(res.Centers), Gains: res.Gains, Total: res.Total,
		MaxReward: req.Instance.TotalWeight(), Rounds: o.resp.Rounds, WallNS: o.resp.WallNS,
	}
	return st, rp.call(root, id, "encode", "api/v1", func() error {
		_, err := json.Marshal(resp)
		return err
	})
}

func wireCenters(cs []vec.V) [][]float64 {
	out := make([][]float64, len(cs))
	for i, c := range cs {
		out[i] = append([]float64(nil), c...)
	}
	return out
}

// algorithm builds the solver the handler would. A sharded solve is built
// with shard.NewSolver, as the registry builds it, with timing shims on
// the partitioner, on the per-part constructor and, in cluster mode, on the
// Cluster's forwarding PartSolver.
func (rp *replayer) algorithm(parent int, id string, req *v1.SolveRequest, normName string, st *replayStats) (core.Algorithm, error) {
	opts := req.Options.SolverOptions()
	shards := solver.EffectiveShards(req.Solver, req.Options.Shards)
	if shards <= 1 {
		return solver.New(req.Solver, opts)
	}
	inner, ok := solver.ShardedInner(req.Solver)
	if !ok {
		inner = req.Solver
	}
	e, ok := solver.Lookup(inner)
	if !ok {
		return nil, fmt.Errorf("replay: unknown inner solver %q", inner)
	}
	parts := &partClock{st: st}
	newInner := func(seed uint64) core.Algorithm {
		o := opts
		o.Seed, o.Shards, o.Halo = seed, 0, 0
		return timedAlg{Algorithm: e.New(o), rp: rp, parent: parent, id: id, clock: parts}
	}
	var remote core.PartSolver
	if rp.cl != nil {
		remote = rp.forwarder(parent, id, req, inner, normName, parts)
	}
	p, ok := shard.NewSolver(inner, newInner, shard.Options{
		Shards: shards, Halo: req.Options.Halo, Workers: opts.Workers, Seed: opts.Seed, Remote: remote,
	}).(core.Pipeline)
	if !ok {
		return nil, fmt.Errorf("replay: shard.NewSolver did not build a core.Pipeline")
	}
	p.Partition = timedPartitioner{inner: p.Partition, rp: rp, parent: parent, id: id, clock: parts}
	return p, nil
}

// partClock measures the heap bytes the part solves allocate: from the
// partition's end to the last part's end.
type partClock struct {
	mu    sync.Mutex
	start uint64
	st    *replayStats
}

func (c *partClock) partitioned() {
	c.mu.Lock()
	c.start = heapAllocs()
	c.mu.Unlock()
}

func (c *partClock) partDone() {
	c.mu.Lock()
	c.st.partAlloc = heapAllocs() - c.start
	c.mu.Unlock()
}

type timedPartitioner struct {
	inner  core.Partitioner
	rp     *replayer
	parent int
	id     string
	clock  *partClock
}

func (t timedPartitioner) Partition(ctx context.Context, in *reward.Instance, k int) (parts []core.Part, err error) {
	err = t.rp.call(t.parent, t.id, "partition", "shard", func() (err error) {
		parts, err = t.inner.Partition(ctx, in, k)
		return err
	})
	t.clock.partitioned()
	return parts, err
}

type timedAlg struct {
	core.Algorithm
	rp     *replayer
	parent int
	id     string
	clock  *partClock
}

func (t timedAlg) Run(ctx context.Context, in *reward.Instance, k int) (*core.Result, error) {
	sp := t.rp.rt.begin(t.parent, t.id, "part_solve", "core")
	res, err := t.Algorithm.Run(ctx, in, k)
	t.rp.rt.end(sp)
	t.clock.partDone()
	return res, err
}

// forwarder wraps the Cluster's PartSolver for one replayed solve. The
// served request already left these exact shard solves in the peers'
// caches; DisablePrune is part of the cache key and ignored by the greedy
// solvers, so setting it turns the replay's forwards into real solves with
// the same answers.
func (rp *replayer) forwarder(parent int, id string, req *v1.SolveRequest, inner, normName string, clock *partClock) core.PartSolver {
	fwd := req.Options
	fwd.Shards, fwd.Halo, fwd.WarmStart, fwd.Workers = 0, 0, nil, 0
	fwd.DisablePrune = true
	ps := rp.cl.PartSolver(clusterd.ForwardSpec{Solver: inner, Norm: normName, Options: fwd, RequestID: id + "/replay"})
	return func(ctx context.Context, part core.Part, seed uint64, k int) ([]vec.V, error) {
		// The wire encoding of the forwarded request, timed on its own
		// because the Cluster's client encodes inside the forward.
		_ = rp.call(parent, id, "encode", "api/v1", func() error {
			o := fwd
			o.Seed = seed
			_, err := json.Marshal(v1.SolveRequest{Instance: part.In.Set, Radius: part.In.Radius,
				Norm: normName, Solver: inner, K: k, Options: o})
			return err
		})
		sp := rp.rt.begin(parent, id, "forward", "clusterd")
		cs, err := ps(ctx, part, seed, k)
		rp.rt.end(sp)
		clock.partDone()
		return cs, err
	}
}

func (rp *replayer) churn(ctx context.Context, o *outcome) (*replayStats, error) {
	id := o.id
	root := rp.rt.begin(0, id, "replay", "")
	defer rp.rt.end(root)

	var req v1.ChurnRequest
	if err := rp.call(root, id, "decode", "api/v1", func() error {
		return json.Unmarshal(o.r.body, &req)
	}); err != nil {
		return nil, fmt.Errorf("replay decode: %w", err)
	}
	normName := req.Norm
	if normName == "" {
		normName = "l2"
	}
	nm, err := norm.ByName(normName)
	if err != nil {
		return nil, err
	}
	lo, hi := req.Instance.Bounds()
	tr, err := trace.FromSet(req.Instance, pointset.Box{Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	churnSpan := rp.rt.begin(root, id, "churn", "broadcast")
	prev := time.Now()
	m, err := broadcast.RunChurn(ctx, tr, broadcast.ChurnConfig{
		K: req.K, Radius: req.Radius, Norm: nm, Periods: req.Periods,
		ArrivalRate: req.ArrivalRate, DepartRate: req.DepartRate, Solver: req.Solver,
		Workers: req.Workers, Seed: req.Seed, WarmStart: req.WarmStart, Index: req.Index,
		OnPeriod: func(broadcast.ChurnPeriodStat) {
			now := time.Now()
			rp.rt.record(churnSpan, id, "period", "broadcast", prev, now)
			prev = now
		},
	})
	rp.rt.end(churnSpan)
	if err != nil {
		return nil, fmt.Errorf("replay churn: %w", err)
	}
	s := o.summary
	return &replayStats{match: m.IncrementalDeltas == s.IncrementalDeltas &&
		math.Float64bits(m.MeanSatisfaction) == math.Float64bits(s.MeanSatisfaction)}, nil
}
