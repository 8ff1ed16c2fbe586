// Package obs is the repository's zero-dependency telemetry layer: a
// Collector interface over counters, gauges, nanosecond timers, and bounded
// histograms, plus a structured event stream with monotonic timestamps.
//
// The solver packages (core, parallel, reward, geom) accept an optional
// Collector; a nil or Nop collector makes every instrumentation site either
// a skipped branch or a no-op interface call, so uninstrumented runs pay
// essentially nothing. Live collectors are provided by this package too:
// Metrics aggregates counters/gauges/timers/histograms and exports a JSON
// Snapshot, and Sink streams every event as one JSON line (JSONL). Multi
// fans out to several collectors at once.
//
// Metric names are dotted strings namespaced by the package that emits them
// ("core.", "reward.", "parallel.", "geom.", "bench."); the canonical names
// are the Stage*/Ctr*/Tim*/Obs* constants below so that producers and
// dashboards cannot drift apart.
package obs

// Collector receives telemetry from instrumented code. Implementations must
// be safe for concurrent use: the candidate scans and per-seed walks emit
// from many goroutines.
type Collector interface {
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// Gauge sets the named gauge to its most recent value.
	Gauge(name string, v float64)
	// Observe records one sample into the named bounded histogram.
	Observe(name string, v float64)
	// TimeNS records one nanosecond duration sample under the named timer.
	TimeNS(name string, ns int64)
	// Emit records a structured event. Implementations stamp e.TNS with a
	// monotonic nanosecond timestamp when it is zero.
	Emit(e Event)
}

// Event is one entry of the structured trace. TNS is nanoseconds since the
// collector was created, taken from the monotonic clock, so events from one
// run are totally ordered and immune to wall-clock steps.
type Event struct {
	TNS    int64              `json:"t_ns"`
	Type   string             `json:"type"`
	Alg    string             `json:"alg,omitempty"`
	Round  int                `json:"round,omitempty"`
	Fields map[string]float64 `json:"fields,omitempty"`

	// Trace is the request/trace ID a span event belongs to, so a
	// server-wide JSONL stream can be partitioned by request. A stage takes
	// it from the ambient span, so it is empty outside the serving layer.
	Trace string `json:"trace,omitempty"`
	// Span and Parent are span IDs linking span_start/span_end events into a
	// tree (Parent is empty on a root span); Name is the span's operation
	// name ("request.solve", "serve.solve", "core.round", "churn.period",
	// ...). All three are empty on non-span events.
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name,omitempty"`
}

// Event types emitted by the instrumented solver packages. A timed stage
// (a round, a churn period, a pipeline or request stage) is a span, so its
// record is its span_end; the types below carry what no stage does.
const (
	// EvSEB records one smallest-enclosing-ball construction with
	// "points" and, for the Welzl recursion, "depth".
	EvSEB = "seb"
	// EvSwapPass records one full sweep of the swap local search with
	// "pass", "improved" (0/1), and "objective".
	EvSwapPass = "swap_pass"
	// EvCancelled records a solver run ending early because its context
	// was cancelled or its deadline expired, carrying "rounds" — the number
	// of completed rounds whose centers the partial result retains.
	EvCancelled = "cancelled"
	// EvWarmStart records a warm-started re-solve comparing the carried-over
	// center set against the cold solve, with "cold", "warm", and
	// "improvement" (warm − cold, clamped at 0).
	EvWarmStart = "warm_start"
	// EvSpanStart / EvSpanEnd bracket one tracing span (see Span). Both
	// carry Trace, Span, Parent, and Name; EvSpanEnd additionally carries
	// "wall_ns", any attributes set on the span, and its Alg when set. A
	// span_start without a matching span_end marks work that was still in
	// flight (or cut off by cancellation) when the trace was read.
	EvSpanStart = "span_start"
	EvSpanEnd   = "span_end"
)

// Stage names (StartStage). Each stage's timer is its name plus "_ns"
// (core.round_ns, shard.partition_ns, ...), so a span and its /metrics
// histogram share one name.
const (
	// StageRound is one greedy round; its span_end carries the round's
	// Alg and "round", "gain" and the algorithm's per-round fields.
	StageRound = "core.round"
	// StageInnerSolve is one continuous inner solve of Algorithm 1.
	StageInnerSolve = "core.inner_solve"

	// The sharded pipeline's three stages (core.Pipeline), one
	// shard.solve per part.
	StageShardPartition = "shard.partition"
	StageShardSolve     = "shard.solve"
	StageShardMerge     = "shard.merge"

	// The near-linear solver's stages: snap to the grid, seed, then the
	// refine stage that holds its rounds.
	StageNLSnap   = "nearlinear.grid_snap"
	StageNLSeed   = "nearlinear.seed"
	StageNLRefine = "nearlinear.refine"

	// StageClusterForward is one shard shipped to a peer, answer check
	// included.
	StageClusterForward = "cluster.forward"

	// StageChurnPeriod is one period of the churn loop; its span_end
	// carries the loop's solver as Alg.
	StageChurnPeriod = "churn.period"

	// The serving layer's stages under a request span: reading and
	// decoding the body, the cache key (when the cache is on) and lookup,
	// the wait for a worker slot, building the solved instance (its grid
	// included), the solve or churn run, and encoding a 200 answer.
	StageSrvDecode      = "serve.decode"
	StageSrvFingerprint = "serve.fingerprint"
	StageSrvCache       = "serve.cache"
	StageSrvQueue       = "serve.queue"
	StageSrvInstance    = "serve.instance"
	StageSrvSolve       = "serve.solve"
	StageSrvChurn       = "serve.churn"
	StageSrvEncode      = "serve.encode"
)

// Canonical metric names.
const (
	CtrRounds     = "core.rounds"
	CtrCancelled  = "core.cancelled"
	CtrCandidates = "core.candidates_evaluated"
	CtrLazyRepops = "core.lazy_heap_repops"
	CtrWalkSteps  = "core.walk_steps"
	CtrSwapEvals  = "core.swap_evals"
	CtrSwapPasses = "core.swap_passes"

	CtrGainEvals      = "reward.gain_evals"
	CtrApplyRounds    = "reward.apply_rounds"
	CtrObjectiveEvals = "reward.objective_evals"

	CtrParTasks     = "parallel.tasks"
	CtrParChunks    = "parallel.chunks"
	TimWorkerBusy   = "parallel.worker_busy_ns"
	GaugeParWorkers = "parallel.workers"

	CtrSEBCalls     = "geom.seb_calls"
	ObsSEBPoints    = "geom.seb_points"
	ObsSEBDepth     = "geom.seb_depth"
	ObsCoresetIters = "geom.coreset_iters"

	CtrExperiments = "bench.experiments"
	TimExperiment  = "bench.experiment_ns"

	CtrWarmStarts = "core.warm_starts"
	CtrWarmWins   = "core.warm_wins"

	// Sharded-solve pipeline series (core.Pipeline fed by internal/shard).
	// Parts counts shards produced per partition, solves the per-shard
	// solver runs, halo the boundary points duplicated into neighboring
	// shards, candidates the centers entering the merge, and merge repops
	// the lazy re-evaluations the merge heap performed. WriteProm renders
	// them as cd_shard_parts_total, cd_shard_solves_total, and so on.
	CtrShardParts       = "shard.parts"
	CtrShardSolves      = "shard.solves"
	CtrShardHaloPoints  = "shard.halo_points"
	CtrShardCandidates  = "shard.candidates"
	CtrShardMergeRepops = "shard.merge_repops"

	CtrNLCells         = "nearlinear.cells"
	CtrNLSeeds         = "nearlinear.seeds"
	CtrNLCandidates    = "nearlinear.exact_scored"
	CtrNLRefineSteps   = "nearlinear.refine_steps"
	CtrNLRefineAccepts = "nearlinear.refine_accepts"

	CtrChurnPeriods = "churn.periods"
	CtrChurnAdded   = "churn.users_added"
	CtrChurnRemoved = "churn.users_removed"
	CtrChurnDeltas  = "churn.incremental_deltas"
	ObsWarmImprove  = "churn.warmstart_improvement"

	// Solve-result cache series (internal/cache wired through the serving
	// layer). Hits/misses/collapsed/bypass are counted by the serving layer
	// per lookup outcome; evictions and the bytes/entries gauges are
	// maintained by the cache itself as entries come and go. WriteProm
	// renders them as cd_cache_hits_total, cd_cache_bytes, and so on.
	CtrCacheHits      = "cache.hits"
	CtrCacheMisses    = "cache.misses"
	CtrCacheEvictions = "cache.evictions"
	CtrCacheCollapsed = "cache.collapsed"
	CtrCacheBypass    = "cache.bypass"
	GaugeCacheBytes   = "cache.bytes"
	GaugeCacheEntries = "cache.entries"

	// Cluster-mode series (internal/clusterd). Forwards counts shard solves
	// shipped to a peer, fallbacks the forwards that failed (dead or
	// saturated peer) and were re-solved locally, gossip rounds the
	// completed probe sweeps over the peer table; peers_live is the live-peer
	// gauge after the latest sweep. WriteProm renders them as
	// cd_cluster_forwards_total, cd_cluster_fallbacks_total,
	// cd_cluster_gossip_rounds_total, and cd_cluster_peers_live.
	CtrClusterForwards     = "cluster.forwards"
	CtrClusterFallbacks    = "cluster.fallbacks"
	CtrClusterGossipRounds = "cluster.gossip_rounds"
	GaugeClusterPeersLive  = "cluster.peers_live"

	CtrSrvRequests   = "serve.requests"
	CtrSrvAccepted   = "serve.accepted"
	CtrSrvQueueFull  = "serve.rejected_queue_full"
	CtrSrvBadRequest = "serve.rejected_bad_request"
	CtrSrvPartial    = "serve.partial_results"
	CtrSrvDraining   = "serve.rejected_draining"
	TimSrvRequest    = "serve.request_ns"
	GaugeSrvInFlight = "serve.in_flight"
	GaugeSrvQueued   = "serve.queued"
)

// Per-route serving metric names ("serve.route.<route>.<series>"). The
// serving layer emits one set per v1 route ("solve", "churn"); WriteProm
// recognizes the "route.<value>" segment pair and turns it into a Prometheus
// route label (e.g. cd_serve_route_requests_total{route="solve"}).

// SrvRouteRequests names the per-route request counter.
func SrvRouteRequests(route string) string { return "serve.route." + route + ".requests" }

// SrvRouteRejected names the per-route admission-reject counter (429 queue
// saturation plus 503 drain refusals).
func SrvRouteRejected(route string) string { return "serve.route." + route + ".rejected" }

// SrvRouteRequestNS names the per-route request-latency timer.
func SrvRouteRequestNS(route string) string { return "serve.route." + route + ".request_ns" }

// SrvRouteInFlight names the per-route in-flight gauge.
func SrvRouteInFlight(route string) string { return "serve.route." + route + ".in_flight" }

// Nop is the default collector: every method does nothing. Instrumented
// code treats it (and nil) as "telemetry off" via Active.
type Nop struct{}

// Count implements Collector.
func (Nop) Count(string, int64) {}

// Gauge implements Collector.
func (Nop) Gauge(string, float64) {}

// Observe implements Collector.
func (Nop) Observe(string, float64) {}

// TimeNS implements Collector.
func (Nop) TimeNS(string, int64) {}

// Emit implements Collector.
func (Nop) Emit(Event) {}

// OrNop returns c, or Nop when c is nil, so call sites never need a nil
// check before an interface call.
func OrNop(c Collector) Collector {
	if c == nil {
		return Nop{}
	}
	return c
}

// Active reports whether c is a live collector. Hot paths branch on this to
// skip event construction and clock reads entirely when telemetry is off.
func Active(c Collector) bool {
	if c == nil {
		return false
	}
	_, nop := c.(Nop)
	return !nop
}

// multi fans every call out to each member.
type multi []Collector

// Multi combines collectors: every Count/Gauge/Observe/TimeNS/Emit is
// forwarded to each live argument. Nil and Nop members are dropped; if none
// remain, Multi returns Nop{}. A single survivor is returned unwrapped.
func Multi(cs ...Collector) Collector {
	var live multi
	for _, c := range cs {
		if Active(c) {
			live = append(live, c)
		}
	}
	switch len(live) {
	case 0:
		return Nop{}
	case 1:
		return live[0]
	}
	return live
}

// Count implements Collector.
func (m multi) Count(name string, delta int64) {
	for _, c := range m {
		c.Count(name, delta)
	}
}

// Gauge implements Collector.
func (m multi) Gauge(name string, v float64) {
	for _, c := range m {
		c.Gauge(name, v)
	}
}

// Observe implements Collector.
func (m multi) Observe(name string, v float64) {
	for _, c := range m {
		c.Observe(name, v)
	}
}

// TimeNS implements Collector.
func (m multi) TimeNS(name string, ns int64) {
	for _, c := range m {
		c.TimeNS(name, ns)
	}
}

// Emit implements Collector. Each member stamps TNS against its own clock
// base, so the same event may carry slightly different timestamps in
// different outputs; within any one output the ordering is monotonic.
func (m multi) Emit(e Event) {
	for _, c := range m {
		c.Emit(e)
	}
}
