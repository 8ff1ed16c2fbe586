package serve

import (
	"encoding/json"
	"net/http"

	v1 "repro/api/v1"
	"repro/internal/broadcast"
	"repro/internal/obs"
	"repro/internal/trace"
)

// handleChurn answers POST /v1/churn with a stream of chunked JSON lines
// (Content-Type application/x-ndjson): one v1.ChurnLine per completed period,
// flushed as the loop commits it, then a final summary line. Warm starts are
// carried across periods inside the loop when requested. A deadline or drain
// mid-run ends the stream early with "partial": true on the summary — the
// periods already streamed are complete results.
//
// All validation happens before the 200 header is written, so schema errors
// still answer with proper HTTP statuses; only failures after streaming
// began are reported in-band as an error line.
func (s *Server) handleChurn(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.begin(w, r, http.MethodPost, routeChurn)
	if !ok {
		return
	}
	var req v1.ChurnRequest
	decode := obs.StartStage(obs.ContextWithSpan(r.Context(), sc.span), s.col, obs.StageSrvDecode)
	e := s.decodeBody(w, r, &req, &req.Instance)
	decode.End()
	if e != nil {
		sc.fail(w, e)
		return
	}
	nm, box, e := req.Resolve()
	if e != nil {
		sc.fail(w, e)
		return
	}
	tr, err := trace.FromSet(req.Instance, box)
	if err != nil {
		sc.fail(w, errf(http.StatusBadRequest, v1.CodeBadInstance, "%v", err))
		return
	}
	cfg := broadcast.ChurnConfig{
		K:           req.K,
		Radius:      req.Radius,
		Norm:        nm,
		Periods:     req.Periods,
		ArrivalRate: req.ArrivalRate,
		DepartRate:  req.DepartRate,
		Solver:      req.Solver,
		Workers:     req.Workers,
		Seed:        req.Seed,
		WarmStart:   req.WarmStart,
		Index:       req.Index,
		Obs:         s.col,
	}
	// Run the loop's own validation up front (periods, rates, index) so the
	// client gets a 400 rather than a mid-stream error line.
	if err := cfg.Validate(); err != nil {
		sc.fail(w, errf(http.StatusBadRequest, v1.CodeBadRequest, "%v", err))
		return
	}

	ctx, cancel := s.solveContext(r, req.DeadlineMS)
	defer cancel()
	ctx = obs.ContextWithSpan(ctx, sc.span) // parents the request's stages
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

	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	wroteHeader := false
	writeLine := func(line v1.ChurnLine) {
		if !wroteHeader {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Request-ID", sc.id)
			w.WriteHeader(http.StatusOK)
			wroteHeader = true
		}
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	cfg.OnPeriod = func(ps broadcast.ChurnPeriodStat) {
		writeLine(v1.ChurnLine{Period: &v1.ChurnPeriod{
			Period:         ps.Period,
			N:              ps.N,
			Objective:      ps.Objective,
			MaxReward:      ps.MaxRwd,
			CarryObjective: ps.CarryObjective,
			Arrivals:       ps.Arrivals,
			Departures:     ps.Departures,
		}})
	}

	// The churn stage parents the loop's period stages (RunChurn picks it
	// up from the context), all under the request's trace ID.
	churnSpan := obs.StartStage(ctx, s.col, obs.StageSrvChurn)
	churnSpan.SetAttr("periods", float64(req.Periods))
	m, runErr := broadcast.RunChurn(obs.ContextWithSpan(ctx, churnSpan), tr, cfg)
	if m != nil {
		churnSpan.SetAttr("completed_periods", float64(len(m.Periods)))
	}
	churnSpan.End()
	if runErr != nil && (m == nil || ctx.Err() == nil) {
		// A real failure, not a cancellation.
		if !wroteHeader {
			sc.fail(w, errf(http.StatusInternalServerError, v1.CodeSolveFailed, "%v", runErr))
			return
		}
		writeLine(v1.ChurnLine{Error: &v1.Error{Code: v1.CodeSolveFailed, Message: runErr.Error()}})
		sc.end(http.StatusOK)
		return
	}
	partial := runErr != nil
	if partial {
		s.col.Count(obs.CtrSrvPartial, 1)
	}
	writeLine(v1.ChurnLine{Summary: &v1.ChurnSummary{
		RequestID:         sc.id,
		Solver:            m.Solver,
		Periods:           len(m.Periods),
		MeanSatisfaction:  m.MeanSatisfaction,
		MeanPopulation:    m.MeanPopulation,
		TotalArrivals:     m.TotalArrivals,
		TotalDepartures:   m.TotalDepartures,
		IncrementalDeltas: m.IncrementalDeltas,
		FullRebuilds:      m.FullRebuilds,
		Partial:           partial,
	}})
	sc.end(http.StatusOK)
}
