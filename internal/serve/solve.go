package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"time"

	v1 "repro/api/v1"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/solver"
	"repro/internal/vec"
)

// handleSolve answers POST /v1/solve: validate, consult the solve-result
// cache (a hit answers immediately, without a worker slot; concurrent
// identical requests collapse onto one solve), else wait for a worker slot
// and run the solver under the merged deadline/drain/client context, and
// answer with the result — complete, or the anytime prefix with "partial":
// true when the deadline (or a drain) cut the solve short. Complete results
// fill the cache; partial ones never do.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.begin(w, r, http.MethodPost, routeSolve)
	if !ok {
		return
	}
	var req v1.SolveRequest
	decode := obs.StartStage(obs.ContextWithSpan(r.Context(), sc.span), s.col, obs.StageSrvDecode)
	e := s.decodeBody(w, r, &req, &req.Instance)
	decode.End()
	if e != nil {
		sc.fail(w, e)
		return
	}
	nm, solverOpts, e := req.Resolve()
	if e != nil {
		sc.fail(w, e)
		return
	}
	useCache := s.cache != nil
	if useCache && req.CacheControl == v1.CacheControlBypass {
		s.col.Count(obs.CtrCacheBypass, 1)
		useCache = false
	}

	ctx, cancel := s.solveContext(r, req.DeadlineMS)
	defer cancel()
	ctx = obs.ContextWithSpan(ctx, sc.span) // parents the request's stages

	// The cache path: a hit (or a collapsed duplicate of an in-flight
	// solve) is answered here, before admission — cached requests never
	// consume a worker slot. A leader registers the fill flight and falls
	// through to the real solve.
	var fill *cache.Flight
	if useCache {
		fp := obs.StartStage(ctx, s.col, obs.StageSrvFingerprint)
		key := cache.Fingerprint(req.Instance, cache.SolveParams{
			Norm:         req.Norm,
			Radius:       req.Radius,
			K:            req.K,
			Solver:       req.Solver,
			Seed:         req.Options.Seed,
			GridPer:      req.Options.GridPer,
			BoxLo:        req.Options.BoxLo,
			BoxHi:        req.Options.BoxHi,
			Polish:       req.Options.Polish,
			DisablePrune: req.Options.DisablePrune,
			WarmStart:    req.Options.WarmStart,
			Shards:       req.Options.Shards,
			Halo:         req.Options.Halo,
			Refine:       req.Options.Refine,
		})
		fp.End()
		cacheSpan := obs.StartStage(ctx, s.col, obs.StageSrvCache)
		val, flight, leader := s.cache.Lookup(key)
		if val != nil {
			s.col.Count(obs.CtrCacheHits, 1)
			cacheSpan.SetAttr("hit", 1)
			cacheSpan.End()
			s.answerCached(ctx, w, sc, val.(*v1.SolveResponse))
			return
		}
		if leader {
			s.col.Count(obs.CtrCacheMisses, 1)
			cacheSpan.SetAttr("hit", 0)
			cacheSpan.End()
			fill = flight
			// Safety net: every exit path below must resolve the flight or
			// followers would wait out their deadlines. Deliver is
			// idempotent, so the success path's real Deliver wins.
			defer fill.Deliver(nil, 0)
		} else {
			// Collapsed onto an identical in-flight solve: wait for its
			// leader instead of taking a worker slot.
			select {
			case <-flight.Done():
				if v := flight.Value(); v != nil {
					s.col.Count(obs.CtrCacheHits, 1)
					s.col.Count(obs.CtrCacheCollapsed, 1)
					cacheSpan.SetAttr("hit", 1)
					cacheSpan.SetAttr("collapsed", 1)
					cacheSpan.End()
					s.answerCached(ctx, w, sc, v.(*v1.SolveResponse))
					return
				}
				// The leader finished without a cacheable result (partial
				// or failed); solve independently.
				s.col.Count(obs.CtrCacheMisses, 1)
				cacheSpan.SetAttr("hit", 0)
				cacheSpan.End()
			case <-ctx.Done():
				cacheSpan.SetAttr("expired", 1)
				cacheSpan.End()
				w.Header().Set("Retry-After", retryAfterValue(s.cfg.retryAfter()))
				sc.fail(w, errf(http.StatusServiceUnavailable, v1.CodeDeadlineQueued,
					"deadline expired while collapsed onto an identical in-flight solve: %v", ctx.Err()))
				return
			}
		}
	}

	queueSpan := obs.StartStage(ctx, s.col, obs.StageSrvQueue)
	if err := s.adm.acquire(ctx); err != nil {
		queueSpan.SetAttr("expired", 1)
		queueSpan.End()
		w.Header().Set("Retry-After", retryAfterValue(s.cfg.retryAfter()))
		sc.fail(w, errf(http.StatusServiceUnavailable, v1.CodeDeadlineQueued,
			"deadline expired while queued for a worker slot: %v", err))
		return
	}
	queueSpan.End()
	defer s.adm.release()

	// Indexed as the coordinator's shard parts are, so a forwarded part
	// solves on par with a local one; the partition and nearlinear's snap
	// reuse the grid.
	instance := obs.StartStage(ctx, s.col, obs.StageSrvInstance)
	in, err := reward.NewIndexed(req.Instance, nm, req.Radius, s.col)
	instance.End()
	if err != nil {
		sc.fail(w, errf(http.StatusBadRequest, v1.CodeBadInstance, "%v", err))
		return
	}
	solverOpts.Remote = s.clusterRemote(sc.id, req.Solver, req.Norm, req.Options)
	alg, err := solver.New(req.Solver, solverOpts)
	if err != nil {
		// Unreachable: Resolve already checked the catalog.
		sc.fail(w, errf(http.StatusBadRequest, v1.CodeUnknownSolver, "%v", err))
		return
	}

	// The solve stage is the parent every solver stage hangs off: the
	// solver picks it up from the context, so one request yields a
	// request.solve → serve.solve → core.round tree keyed by the request ID.
	solveSpan := obs.StartStage(ctx, s.col, obs.StageSrvSolve)
	solveSpan.SetAttr("k", float64(req.K))
	solveSpan.SetAttr("n", float64(in.N()))
	start := time.Now()
	res, runErr := alg.Run(obs.ContextWithSpan(ctx, solveSpan), in, req.K)
	wall := time.Since(start).Nanoseconds()
	if res != nil && !finite(res) {
		// JSON has no NaN or ±Inf: fail the request, and cache nothing.
		res, runErr = nil, errors.New("the solve's total, gains or centers are not finite")
	}
	partial := false
	if runErr != nil {
		if res == nil || ctx.Err() == nil {
			solveSpan.SetAttr("failed", 1)
			solveSpan.End()
			sc.fail(w, errf(http.StatusInternalServerError, v1.CodeSolveFailed, "%v", runErr))
			return
		}
		// The anytime contract: a cancelled solve returns the valid prefix
		// it committed. That is a successful (partial) response.
		partial = true
		s.col.Count(obs.CtrSrvPartial, 1)
		solveSpan.SetAttr("partial", 1)
	}
	solveSpan.SetAttr("rounds", float64(len(res.Gains)))
	solveSpan.SetAttr("total", res.Total)
	solveSpan.End()

	encode := obs.StartStage(ctx, s.col, obs.StageSrvEncode)
	resp := v1.SolveResponse{
		RequestID: sc.id,
		Solver:    req.Solver,
		Norm:      req.Norm,
		K:         req.K,
		Radius:    req.Radius,
		N:         in.N(),
		Centers:   centersWire(res.Centers),
		Gains:     append([]float64{}, res.Gains...),
		Total:     res.Total,
		MaxReward: req.Instance.TotalWeight(),
		Partial:   partial,
		Rounds:    roundsWire(res),
		WallNS:    wall,
	}
	if fill != nil && !partial {
		// Cache the complete result (the anytime prefix of a cut-short solve
		// is valid but not the full answer, so partials are never cached).
		// The stored copy drops the request ID: it belongs to whichever
		// request is being answered, not to the solve that produced the body.
		stored := resp
		stored.RequestID = ""
		size := int64(len(mustMarshal(stored)))
		fill.Deliver(&stored, size)
	}
	writeJSON(w, sc.id, http.StatusOK, resp)
	encode.End()
	sc.end(http.StatusOK)
}

// answerCached writes a cached solve result as this request's response: every
// field of the original (complete) solve bit-identical, with this request's
// ID and the cached flag stamped on. The shallow copy shares the cached
// slices, which are never mutated after Deliver.
func (s *Server) answerCached(ctx context.Context, w http.ResponseWriter, sc *reqScope, stored *v1.SolveResponse) {
	encode := obs.StartStage(ctx, s.col, obs.StageSrvEncode)
	resp := *stored
	resp.RequestID = sc.id
	resp.Cached = true
	writeJSON(w, sc.id, http.StatusOK, resp)
	encode.End()
	sc.end(http.StatusOK)
}

// finite reports whether a solve's total, gains and centers are finite.
func finite(res *core.Result) bool {
	if math.IsNaN(res.Total) || math.IsInf(res.Total, 0) || !vec.V(res.Gains).IsFinite() {
		return false
	}
	for _, c := range res.Centers {
		if !c.IsFinite() {
			return false
		}
	}
	return true
}

// mustMarshal sizes a response for the cache's byte budget. v1.SolveResponse
// contains only JSON-encodable fields, so Marshal cannot fail.
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func centersWire(centers []vec.V) [][]float64 {
	out := make([][]float64, len(centers))
	for i, c := range centers {
		out[i] = append([]float64{}, c...)
	}
	return out
}

// roundsWire pairs each round's gain with its wall time from the result.
// Results not built round by round (exhaustive search, an adopted warm
// start) carry no round times, so their rounds report zero wall time.
func roundsWire(res *core.Result) []v1.Round {
	rounds := make([]v1.Round, len(res.Gains))
	for j, g := range res.Gains {
		rounds[j] = v1.Round{Round: j + 1, Gain: g}
		if j < len(res.RoundNS) {
			rounds[j].WallNS = res.RoundNS[j]
		}
	}
	return rounds
}
