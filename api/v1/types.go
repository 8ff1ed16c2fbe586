package v1

import (
	"repro/internal/pointset"
	"repro/internal/solver"
)

// SolveOptions is the one versioned solver-options surface: the wire form of
// solver.Options, shared by POST /v1/solve and the cdgreedy flags so the two
// entry points can never drift. The exhaustive-baseline knobs (grid_per,
// box_lo/hi, polish, disable_prune) are ignored by the greedy solvers,
// exactly as in solver.Options.
type SolveOptions struct {
	// Workers bounds the solver's parallelism; 0 uses all CPUs. Never part
	// of the result: every solver is bit-identical across worker counts.
	Workers int `json:"workers,omitempty"`
	// Seed drives any solver randomness; deterministic per seed.
	Seed uint64 `json:"seed,omitempty"`
	// WarmStart carries a previous solve's centers; the better of the cold
	// solve and the carried-over set is returned. Dimensions must match
	// the instance.
	WarmStart [][]float64 `json:"warm_start,omitempty"`
	// GridPer enriches the exhaustive candidate set with a lattice of
	// GridPer points per dimension; GridPer^dim must not exceed MaxCells.
	GridPer int `json:"grid_per,omitempty"`
	// BoxLo/BoxHi bound the enrichment lattice (default: data bounds).
	BoxLo []float64 `json:"box_lo,omitempty"`
	BoxHi []float64 `json:"box_hi,omitempty"`
	// Polish refines the exhaustive winner by coordinate ascent.
	Polish bool `json:"polish,omitempty"`
	// DisablePrune turns off exhaustive branch-and-bound pruning.
	DisablePrune bool `json:"disable_prune,omitempty"`
	// Shards > 1 routes the solve through the spatial partition →
	// shard-solve → merge pipeline: the instance is split into this many
	// balanced grid-cell shards, each solved independently (in parallel,
	// with deterministic per-shard seeds), and the candidate centers are
	// lazy-greedy merged against the full instance. On a cluster node with
	// live peers the shard solves are fanned out over the wire. 0 or 1
	// solves single-shot. Sharding changes the result, so it is part of the
	// cache fingerprint. Must be non-negative.
	Shards int `json:"shards,omitempty"`
	// Halo is the sharded pipeline's boundary-halo width in grid-cell rings
	// (cells have side = radius): 0 uses the default of one ring, -1
	// disables the halo (other negatives are a bad_request error), and
	// (2·Halo+1)^dim must not exceed MaxCells. Ignored when Shards <= 1.
	Halo int `json:"halo,omitempty"`
	// Refine is the near-linear solver's per-center local-refinement round
	// budget: 0 uses the default, negative disables refinement. Refinement
	// moves the returned centers, so it is part of the cache fingerprint.
	// The other solvers ignore it.
	Refine int `json:"refine,omitempty"`
}

// MaxCells bounds the work the two lattice-shaped options can buy before
// any cancellable loop starts: a sharded solve walks (2·Halo+1)^dim
// neighbour cells around every occupied cell, and GridPer builds
// GridPer^dim lattice points. Resolve rejects either above this.
const MaxCells = 1 << 16

// SolverOptions maps the wire options onto the internal solver.Options. The
// dimension-checked fields (WarmStart, BoxLo/BoxHi) are left zero — callers
// validate them against the instance and fill the converted values.
func (o SolveOptions) SolverOptions() solver.Options {
	return solver.Options{
		Workers:      o.Workers,
		Seed:         o.Seed,
		GridPer:      o.GridPer,
		Polish:       o.Polish,
		DisablePrune: o.DisablePrune,
		Shards:       o.Shards,
		Halo:         o.Halo,
		Refine:       o.Refine,
	}
}

// CacheControlBypass is the one non-default SolveRequest.CacheControl
// value: force a fresh solve that neither reads nor fills the cache.
const CacheControlBypass = "bypass"

// SolveRequest is the body of POST /v1/solve: one instance, one solver
// name from the registry catalog (GET /v1/solvers), and a per-request
// deadline. A request whose deadline expires mid-solve is answered 200 with
// the anytime prefix and "partial": true, not an error.
type SolveRequest struct {
	// Instance is the weighted user population, in the pointset JSON
	// schema: {"dim": 2, "points": [[...], ...], "weights": [...]}
	// (weights optional, defaulting to 1).
	Instance *pointset.Set `json:"instance"`
	// Radius is the coverage radius r (must be positive and finite).
	Radius float64 `json:"radius"`
	// Norm names the interest-distance norm: l1 | l2 | linf (default l2).
	Norm string `json:"norm,omitempty"`
	// Solver names a registry algorithm (default greedy2).
	Solver string `json:"solver,omitempty"`
	// K is the number of broadcast contents to select: at least 1 and at
	// most the instance's user count.
	K int `json:"k"`
	// DeadlineMS bounds the solve in milliseconds; on expiry the
	// best-so-far prefix is returned with "partial": true. 0 means no
	// deadline (the server may still cap it; see cdserved -max-deadline).
	// A value outside 0 to 9,223,372,036,854, the longest deadline a
	// time.Duration holds, is a bad_request error.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// CacheControl steers the solve-result cache: "" (default) serves an
	// identical earlier solve from memory and collapses concurrent
	// duplicates onto one run; "bypass" forces a fresh solve that neither
	// reads nor fills the cache. Any other value is a bad_request error.
	CacheControl string `json:"cache_control,omitempty"`
	// Options carries the unified solver options.
	Options SolveOptions `json:"options"`
}

// Round is one round of per-round telemetry in a solve response.
type Round struct {
	// Round is 1-based selection order.
	Round int `json:"round"`
	// Gain is the round's objective gain g(round).
	Gain float64 `json:"gain"`
	// WallNS is the round's wall time, when the solver reported it.
	WallNS int64 `json:"wall_ns,omitempty"`
}

// SolveResponse is the body of a successful POST /v1/solve.
type SolveResponse struct {
	// RequestID echoes X-Request-ID or a server-generated id; the same id
	// tags the request's events in the server-wide /metrics trace.
	RequestID string `json:"request_id"`
	// Solver is the algorithm that produced the result.
	Solver string `json:"solver"`
	// Norm is the resolved norm name.
	Norm string `json:"norm"`
	// K echoes the requested broadcast count.
	K int `json:"k"`
	// Radius echoes the coverage radius.
	Radius float64 `json:"radius"`
	// N is the instance size.
	N int `json:"n"`
	// Centers are the selected broadcast contents in selection order;
	// under a deadline this may be a prefix (len < k) with Partial set.
	Centers [][]float64 `json:"centers"`
	// Gains are the per-round objective gains, parallel to Centers.
	Gains []float64 `json:"gains"`
	// Total is the achieved objective f(C), the sum of Gains.
	Total float64 `json:"total"`
	// MaxReward is Σ w_i, the objective's upper bound.
	MaxReward float64 `json:"max_reward"`
	// Partial marks a deadline- or drain-bounded solve: Centers is the
	// valid anytime prefix the solver committed before cancellation.
	Partial bool `json:"partial"`
	// Rounds is per-round telemetry (gain and wall time per round).
	Rounds []Round `json:"rounds,omitempty"`
	// WallNS is the server-side wall time of the solve. On a cached
	// response it is the original solve's wall time, not the (microsecond)
	// lookup.
	WallNS int64 `json:"wall_ns"`
	// Cached marks a response answered from the solve-result cache: every
	// field except RequestID (and this flag) is bit-identical to the
	// original solve's response, including Rounds and WallNS. Partial
	// results are never cached, so Cached implies Partial == false.
	Cached bool `json:"cached,omitempty"`
}

// ChurnRequest is the body of POST /v1/churn: a churn-loop simulation
// whose per-period results stream back as chunked JSON lines (ChurnLine)
// while the loop runs, with warm starts carried across periods when
// requested.
type ChurnRequest struct {
	// Instance is the initial population (pointset JSON schema).
	Instance *pointset.Set `json:"instance"`
	// BoxLo/BoxHi bound the region arrivals sample from (default: the
	// instance's bounding box).
	BoxLo []float64 `json:"box_lo,omitempty"`
	BoxHi []float64 `json:"box_hi,omitempty"`
	// Radius is the coverage radius r.
	Radius float64 `json:"radius"`
	// Norm names the interest-distance norm (default l2).
	Norm string `json:"norm,omitempty"`
	// Solver names the registry algorithm re-solved each period (default
	// greedy2).
	Solver string `json:"solver,omitempty"`
	// K is the number of broadcasts per period: at least 1 and at most the
	// initial instance's user count.
	K int `json:"k"`
	// Periods is the number of broadcast periods to simulate.
	Periods int `json:"periods"`
	// ArrivalRate / DepartRate are the mean Poisson arrivals and
	// departures per period.
	ArrivalRate float64 `json:"arrival_rate"`
	DepartRate  float64 `json:"depart_rate"`
	// Seed drives churn and solver randomness; deterministic per seed.
	Seed uint64 `json:"seed,omitempty"`
	// WarmStart carries each period's centers into the next re-solve.
	WarmStart bool `json:"warm_start,omitempty"`
	// Index selects the neighbour index of each period's instance: none
	// (the default when empty) or grid, built where it is expected to pay
	// for itself. It never changes a result.
	Index string `json:"index,omitempty"`
	// Workers bounds the per-period solver parallelism; 0 uses all CPUs.
	Workers int `json:"workers,omitempty"`
	// DeadlineMS bounds the whole loop in milliseconds; periods completed
	// before expiry stream normally and the summary line carries
	// "partial": true. 0 means no deadline (the server may still cap it),
	// and a value outside 0 to 9,223,372,036,854 is a bad_request error.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ChurnPeriod is one streamed period of a churn run.
type ChurnPeriod struct {
	// Period is the 0-based period index.
	Period int `json:"period"`
	// N is the population size the period was solved for.
	N int `json:"n"`
	// Objective is f(C) of the adopted centers.
	Objective float64 `json:"objective"`
	// MaxReward is the period's Σ w_i.
	MaxReward float64 `json:"max_reward"`
	// CarryObjective is the previous centers' score on this period's
	// population (the warm-start candidate); 0 for the first period.
	CarryObjective float64 `json:"carry_objective,omitempty"`
	// Arrivals / Departures are the churn applied after this period.
	Arrivals   int `json:"arrivals"`
	Departures int `json:"departures"`
}

// ChurnSummary is the final line of a churn stream.
type ChurnSummary struct {
	// RequestID tags the run in the server-wide /metrics trace.
	RequestID string `json:"request_id"`
	// Solver is the algorithm re-solved each period.
	Solver string `json:"solver"`
	// Periods is the number of periods that completed.
	Periods int `json:"periods"`
	// MeanSatisfaction is the mean over periods of f(C)/Σw.
	MeanSatisfaction float64 `json:"mean_satisfaction"`
	// MeanPopulation is the mean population size over periods.
	MeanPopulation float64 `json:"mean_population"`
	// TotalArrivals / TotalDepartures count users over the whole run.
	TotalArrivals   int `json:"total_arrivals"`
	TotalDepartures int `json:"total_departures"`
	// IncrementalDeltas counts the arrivals plus departures applied.
	// FullRebuilds counts the instances built, one per period: each period
	// is solved on an instance built from its population.
	IncrementalDeltas int `json:"incremental_deltas"`
	FullRebuilds      int `json:"full_rebuilds"`
	// Partial marks a run cut short by its deadline or a server drain;
	// the streamed periods are complete, later ones never ran.
	Partial bool `json:"partial"`
}

// ChurnLine is one chunked JSON line of a /v1/churn response stream:
// exactly one of Period, Summary, or Error is set. The stream is zero or
// more period lines followed by one summary line (or an error line when the
// loop fails after streaming began).
type ChurnLine struct {
	Period  *ChurnPeriod  `json:"period,omitempty"`
	Summary *ChurnSummary `json:"summary,omitempty"`
	Error   *Error        `json:"error,omitempty"`
}

// SolverInfo describes one catalog entry in GET /v1/solvers.
type SolverInfo struct {
	// Name is the canonical registry name — the same string `cdgreedy
	// -alg` accepts and SolveRequest.Solver takes.
	Name string `json:"name"`
	// Summary is the registry's one-line description.
	Summary string `json:"summary"`
}

// SolversResponse is the body of GET /v1/solvers, sorted by name.
type SolversResponse struct {
	Solvers []SolverInfo `json:"solvers"`
}

// Health is the body of GET /healthz. The endpoint always answers 200 —
// saturation and drain are reported in Status, not by failing the probe.
type Health struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Draining mirrors Status == "draining" as a boolean, so probes need no
	// string comparison.
	Draining bool `json:"draining"`
	// InFlight is the number of requests currently holding worker slots or
	// waiting for one.
	InFlight int `json:"in_flight"`
	// Queued is the number of admitted requests waiting for a worker.
	Queued int `json:"queued"`
	// UptimeNS is nanoseconds since the server was constructed.
	UptimeNS int64 `json:"uptime_ns"`
	// UptimeSeconds is UptimeNS in seconds, for human probes and dashboards.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ClusterHealth is the body of GET /v1/cluster/health — the gossip message
// of cluster mode. It reports the answering node's own capacity (the fields
// a coordinator uses to rank peers by load) plus its current view of every
// configured peer. A standalone node answers with an empty peer list.
type ClusterHealth struct {
	// Advertise is the node's own advertised base URL ("" when the node is
	// not in cluster mode).
	Advertise string `json:"advertise,omitempty"`
	// Draining reports whether the node has begun its graceful drain; a
	// draining node no longer accepts forwarded work.
	Draining bool `json:"draining"`
	// Workers is the node's worker-slot count (max concurrently running
	// solves).
	Workers int `json:"workers"`
	// InFlight is the number of requests currently holding or waiting for
	// worker slots.
	InFlight int `json:"in_flight"`
	// Queued is the number of admitted requests waiting for a worker.
	Queued int `json:"queued"`
	// QueueDepth is the admission queue's capacity beyond the running
	// slots; Queued approaching QueueDepth means the node is saturated.
	QueueDepth int `json:"queue_depth"`
	// Peers is the node's current view of its configured peers, sorted by
	// URL.
	Peers []ClusterPeer `json:"peers,omitempty"`
}

// ClusterPeer is one row of a node's peer table in ClusterHealth.
type ClusterPeer struct {
	// URL is the peer's base URL as configured via -peers.
	URL string `json:"url"`
	// Live reports whether the last gossip round reached the peer and it
	// was not draining.
	Live bool `json:"live"`
	// Draining mirrors the peer's own drain state from its last health
	// response.
	Draining bool `json:"draining,omitempty"`
	// Workers / InFlight / Queued are the peer's capacity numbers from its
	// last successful gossip response (zero until one succeeds).
	Workers  int `json:"workers"`
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// AgeMS is how old the peer's last successful health response is, in
	// milliseconds; -1 when no gossip round has ever succeeded.
	AgeMS int64 `json:"age_ms"`
	// Fails counts consecutive failed gossip probes since the last success.
	Fails int `json:"fails"`
}

// Error is the machine-readable error every non-2xx v1 response carries.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable detail (e.g. the sorted solver catalog for
	// CodeUnknownSolver).
	Message string `json:"message"`
}

// ErrorResponse wraps Error as a response body: {"error": {...}}.
type ErrorResponse struct {
	Error Error `json:"error"`
}

// Machine-readable error codes carried in Error.Code.
const (
	// CodeBadJSON: the body is not valid JSON for the request schema
	// (malformed syntax or unknown fields).
	CodeBadJSON = "bad_json"
	// CodeBodyTooLarge: the body exceeded the server's -max-body cap;
	// answered 413.
	CodeBodyTooLarge = "body_too_large"
	// CodeBadInstance: the instance failed pointset validation (empty,
	// non-finite coordinates, invalid weights).
	CodeBadInstance = "bad_instance"
	// CodeDimMismatch: inconsistent dimensions — mixed-length points, a
	// contradicting "dim", or warm-start centers of the wrong dimension.
	CodeDimMismatch = "dim_mismatch"
	// CodeBadK: k was below 1 or above the instance's user count.
	CodeBadK = "bad_k"
	// CodeBadRadius: the radius was not positive and finite.
	CodeBadRadius = "bad_radius"
	// CodeBadNorm: the norm name is not l1 | l2 | linf.
	CodeBadNorm = "bad_norm"
	// CodeUnknownSolver: the solver name is not in the registry; the
	// message carries the sorted catalog.
	CodeUnknownSolver = "unknown_solver"
	// CodeBadRequest: a request field failed validation not covered by a
	// more specific code (periods, rates, index name, cache_control,
	// sharding options).
	CodeBadRequest = "bad_request"
	// CodeQueueFull: the admission queue is saturated; answered 429 with a
	// Retry-After header. Back off and retry.
	CodeQueueFull = "queue_full"
	// CodeDeadlineQueued: the request's deadline expired (or the client
	// disconnected) while it was still queued, before any solving started;
	// answered 503 with Retry-After.
	CodeDeadlineQueued = "deadline_while_queued"
	// CodeDraining: the server is shutting down and no longer admits work;
	// answered 503.
	CodeDraining = "draining"
	// CodeMethodNotAllowed: wrong HTTP method for the endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeSolveFailed: the solver failed other than by cancellation, or its
	// result is not finite (JSON has no NaN or ±Inf); answered 500.
	CodeSolveFailed = "solve_failed"
)
