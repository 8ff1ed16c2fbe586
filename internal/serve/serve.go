// Package serve is the network face of the solver stack: a stdlib-only HTTP
// service exposing the registry catalog behind a small versioned JSON API.
//
//	POST /v1/solve    one instance, one solver, per-request deadline
//	POST /v1/churn    churn-loop simulation streamed as chunked JSON lines
//	GET  /v1/solvers  the registry catalog (same names cdgreedy -alg takes)
//	GET  /healthz     liveness + drain state (always 200)
//	GET  /metrics     obs.Metrics snapshot of the whole server
//	GET  /debug/pprof CPU/heap profiling
//
// The robustness core is explicit admission control: at most Workers solves
// run concurrently, at most QueueDepth more may wait, and everything beyond
// that is answered 429 with a Retry-After header instead of an unbounded
// goroutine pile. Per-request deadlines ride the solver stack's anytime
// contract — a solve cut off mid-run answers 200 with the committed prefix
// and "partial": true. Drain (SIGTERM in cdserved) stops admission, lets
// in-flight solves finish within a grace period, then cancels them; their
// clients also get valid partial results.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	v1 "repro/api/v1"
	"repro/internal/cache"
	"repro/internal/clusterd"
	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/solver"

	// The serving catalog must include the exhaustive baseline alongside the
	// registry's built-ins.
	_ "repro/internal/exhaustive"
)

// Defaults for Config's zero values.
const (
	DefaultQueueDepth = 64
	DefaultMaxBody    = 8 << 20 // 8 MiB of JSON is a ~100k-user instance
	DefaultRetryAfter = 1 * time.Second
	DefaultCacheBytes = cache.DefaultMaxBytes
)

// Config parameterizes a Server. The zero value is usable: all-CPU worker
// slots, a 64-deep queue, 8 MiB bodies, uncapped deadlines, telemetry kept
// only in the server's own /metrics collector.
type Config struct {
	// Workers bounds the number of concurrently running solves; <= 0 uses
	// one slot per CPU.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// slot beyond the running ones; past it requests are answered 429.
	// 0 means DefaultQueueDepth; negative means no waiting at all.
	QueueDepth int
	// MaxBody caps request-body bytes (413 past it); 0 means DefaultMaxBody.
	MaxBody int64
	// RetryAfter is the hint attached to 429/503 responses; 0 means
	// DefaultRetryAfter.
	RetryAfter time.Duration
	// MaxDeadline, when > 0, caps every request's deadline: requests asking
	// for more (or for none) run under this cap instead.
	MaxDeadline time.Duration
	// CacheBytes is the solve-result cache's byte budget: complete solve
	// responses are memoized by instance fingerprint and identical requests
	// are answered from memory (and collapsed onto one run while it is in
	// flight). 0 means DefaultCacheBytes; negative disables caching and
	// collapsing entirely.
	CacheBytes int64
	// Obs, when live, receives every signal the server records: the
	// aggregates its /metrics collector keeps plus the request span trees
	// and solver events, which /metrics does not keep — so an operator can
	// stream the event trace to a JSONL sink.
	Obs obs.Collector
	// Cluster, when non-nil, puts the server in cluster mode: GET
	// /v1/cluster/health reports its advertise URL and peer table, and
	// sharded solves (shards > 1) fan their shard solves out to live peers
	// through it, falling back locally per shard when a peer fails. The
	// caller owns the cluster's lifecycle (Start/Stop).
	Cluster *clusterd.Cluster
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	switch {
	case c.QueueDepth == 0:
		return DefaultQueueDepth
	case c.QueueDepth < 0:
		return 0
	}
	return c.QueueDepth
}

func (c Config) maxBody() int64 {
	if c.MaxBody > 0 {
		return c.MaxBody
	}
	return DefaultMaxBody
}

func (c Config) retryAfter() time.Duration {
	if c.RetryAfter > 0 {
		return c.RetryAfter
	}
	return DefaultRetryAfter
}

func (c Config) cacheBytes() int64 {
	switch {
	case c.CacheBytes == 0:
		return DefaultCacheBytes
	case c.CacheBytes < 0:
		return 0
	}
	return c.CacheBytes
}

// Server is the HTTP service. Construct with New, mount Handler (httptest)
// or call Serve (cdserved), and stop with Drain.
type Server struct {
	cfg     Config
	metrics *obs.Metrics
	col     obs.Collector // metrics fanned out with cfg.Obs
	cache   *cache.Cache  // nil when Config.CacheBytes < 0
	adm     *admission
	mux     *http.ServeMux
	httpSrv *http.Server
	start   time.Time
	routes  map[string]*routeStats

	reqSeq   atomic.Uint64
	inFlight atomic.Int64
	draining atomic.Bool

	wg           sync.WaitGroup // tracks v1 request handlers, not conns
	solveCtx     context.Context
	cancelSolves context.CancelFunc
}

// routeStats precomputes the per-route metric names (requests, latency,
// in-flight, admission rejects) so the hot path never formats strings, and
// carries the route's own in-flight count.
type routeStats struct {
	requests string // counter
	rejected string // counter: 429 queue_full + 503 draining
	latency  string // timer
	inFlight string // gauge
	n        atomic.Int64
}

func newRouteStats(route string) *routeStats {
	return &routeStats{
		requests: obs.SrvRouteRequests(route),
		rejected: obs.SrvRouteRejected(route),
		latency:  obs.SrvRouteRequestNS(route),
		inFlight: obs.SrvRouteInFlight(route),
	}
}

// New builds a Server from cfg. It never listens by itself — pass Handler to
// an httptest.Server or a net listener to Serve.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		metrics: obs.NewMetrics(),
		adm:     newAdmission(cfg.workers(), cfg.queueDepth()),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		routes: map[string]*routeStats{
			routeSolve: newRouteStats(routeSolve),
			routeChurn: newRouteStats(routeChurn),
		},
	}
	s.col = obs.Multi(s.metrics, cfg.Obs)
	if cfg.Cluster != nil {
		// Cluster counters must land in this server's /metrics snapshot even
		// when the caller wired no shared collector of its own.
		cfg.Cluster.AddObs(s.metrics)
	}
	if budget := cfg.cacheBytes(); budget > 0 {
		s.cache = cache.New(budget, s.col)
	}
	s.solveCtx, s.cancelSolves = context.WithCancel(context.Background())
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}

	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/churn", s.handleChurn)
	s.mux.HandleFunc("/v1/solvers", s.handleSolvers)
	s.mux.HandleFunc("/v1/cluster/health", s.handleClusterHealth)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the root handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's own collector (what /metrics snapshots).
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Serve accepts connections on ln until Drain. A clean shutdown returns nil.
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain shuts the server down gracefully: new v1 requests are refused with
// 503 immediately, in-flight solves get grace to finish on their own, then
// their contexts are cancelled so they return anytime partial results. Drain
// blocks until every v1 handler has written its response (or ctx expires)
// and the listener is closed.
func (s *Server) Drain(ctx context.Context, grace time.Duration) error {
	s.draining.Store(true)
	if grace > 0 {
		t := time.AfterFunc(grace, s.cancelSolves)
		defer t.Stop()
	} else {
		s.cancelSolves()
	}
	defer s.cancelSolves()

	handlersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(handlersDone)
	}()
	err := s.httpSrv.Shutdown(ctx)
	select {
	case <-handlersDone:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// errf builds the v1 error a request is answered with.
func errf(status int, code, format string, args ...any) *v1.APIError {
	return &v1.APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// v1 route labels for the per-route serving series and span names.
const (
	routeSolve = "solve"
	routeChurn = "churn"
)

// reqScope tracks one admitted v1 request: id, telemetry, slot release, and
// the root span of the request's trace tree.
type reqScope struct {
	s       *Server
	id      string
	route   *routeStats
	span    *obs.Span
	start   time.Time
	release func()
	done    bool
}

// begin runs the shared admission path for a v1 solve/churn request:
// method check, drain check, queue admission (429 on saturation), request-id
// assignment, and the request's root span. route labels the per-route series
// and names that span ("request.solve" / "request.churn"); its trace ID is
// the request ID.
// When ok is false the response has already been written.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, method, route string) (*reqScope, bool) {
	rt := s.routes[route]
	s.col.Count(obs.CtrSrvRequests, 1)
	s.col.Count(rt.requests, 1)
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, "", errf(http.StatusMethodNotAllowed, v1.CodeMethodNotAllowed,
			"%s %s: use %s", r.Method, r.URL.Path, method))
		return nil, false
	}
	id := requestID(r, &s.reqSeq)
	if s.draining.Load() {
		s.col.Count(obs.CtrSrvDraining, 1)
		s.col.Count(rt.rejected, 1)
		w.Header().Set("Retry-After", retryAfterValue(s.cfg.retryAfter()))
		writeError(w, id, errf(http.StatusServiceUnavailable, v1.CodeDraining,
			"server is draining; retry against another instance"))
		return nil, false
	}
	if !s.adm.tryAdmit() {
		s.col.Count(obs.CtrSrvQueueFull, 1)
		s.col.Count(rt.rejected, 1)
		w.Header().Set("Retry-After", retryAfterValue(s.cfg.retryAfter()))
		writeError(w, id, errf(http.StatusTooManyRequests, v1.CodeQueueFull,
			"admission queue full (%d running + %d queued); retry after backoff",
			s.cfg.workers(), s.cfg.queueDepth()))
		return nil, false
	}
	s.col.Count(obs.CtrSrvAccepted, 1)
	s.wg.Add(1)
	s.col.Gauge(obs.GaugeSrvInFlight, float64(s.inFlight.Add(1)))
	s.col.Gauge(rt.inFlight, float64(rt.n.Add(1)))
	s.col.Gauge(obs.GaugeSrvQueued, float64(s.adm.queued()))
	span := obs.StartSpan(s.col, id, "request."+route)
	return &reqScope{s: s, id: id, route: rt, span: span,
		start: time.Now(), release: s.adm.releaseAdmit}, true
}

// end closes the scope; status is the HTTP code the handler answered with.
// Idempotent so handlers can defer it and still end early on error paths.
func (sc *reqScope) end(status int) {
	if sc.done {
		return
	}
	sc.done = true
	sc.release()
	n := sc.s.inFlight.Add(-1)
	wall := time.Since(sc.start).Nanoseconds()
	sc.s.col.Gauge(obs.GaugeSrvInFlight, float64(n))
	sc.s.col.Gauge(sc.route.inFlight, float64(sc.route.n.Add(-1)))
	sc.s.col.Gauge(obs.GaugeSrvQueued, float64(sc.s.adm.queued()))
	sc.s.col.TimeNS(obs.TimSrvRequest, wall)
	sc.s.col.TimeNS(sc.route.latency, wall)
	sc.span.SetAttr("status", float64(status))
	sc.span.End()
	sc.s.wg.Done()
}

// fail answers the request with a v1 error and closes the scope.
func (sc *reqScope) fail(w http.ResponseWriter, e *v1.APIError) {
	if e.Status == http.StatusBadRequest || e.Status == http.StatusRequestEntityTooLarge {
		sc.s.col.Count(obs.CtrSrvBadRequest, 1)
	}
	writeError(w, sc.id, e)
	sc.end(e.Status)
}

// requestID takes the client's X-Request-ID when it is short and printable,
// else mints req-<seq>.
func requestID(r *http.Request, seq *atomic.Uint64) string {
	id := r.Header.Get("X-Request-ID")
	if id != "" && len(id) <= 128 && !strings.ContainsFunc(id, func(c rune) bool {
		return c < 0x20 || c > 0x7e
	}) {
		return id
	}
	return fmt.Sprintf("req-%08x", seq.Add(1))
}

func retryAfterValue(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// decodeBody reads the request body under the body cap and strictly decodes
// it into dst, whose "instance" field inst points at, mapping failures to
// wire error codes.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any, inst **pointset.Set) *v1.APIError {
	// Size the buffer from Content-Length, capped so a false one cannot
	// cost more than the cap; the MinRead spare lets ReadFrom see EOF
	// without growing it.
	limit := s.cfg.maxBody()
	size := int64(bytes.MinRead)
	if r.ContentLength > 0 {
		size += min(r.ContentLength, limit)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return errf(http.StatusRequestEntityTooLarge, v1.CodeBodyTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
		}
		return errf(http.StatusBadRequest, v1.CodeBadJSON, "%v", err)
	}
	return decodeRequest(buf.Bytes(), dst, inst)
}

// decodeRequest decodes a /v1 request body in one walk: the instance
// members go through the pointset codec, and only the envelope around them
// through the strict encoding/json decoder. Errors take the precedence one
// strict encoding/json decode of the whole body gives them (FuzzDecodeBody
// holds it to that): malformed JSON anywhere, then the first invalid
// instance, then the envelope's own error. Bytes after the object are
// ignored.
func decodeRequest(body []byte, dst any, inst **pointset.Set) *v1.APIError {
	set, rest, err := pointset.SplitMember(body, "instance")
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(rest))
		dec.DisallowUnknownFields()
		err = dec.Decode(dst)
	}
	if err == nil {
		*inst = set
		return nil
	}
	switch {
	case errors.Is(err, pointset.ErrDim):
		return errf(http.StatusBadRequest, v1.CodeDimMismatch, "%v", err)
	case errors.Is(err, pointset.ErrDecode):
		// The instance decoded as JSON but failed pointset validation.
		return errf(http.StatusBadRequest, v1.CodeBadInstance, "%v", err)
	default:
		return errf(http.StatusBadRequest, v1.CodeBadJSON, "%v", err)
	}
}

func writeJSON(w http.ResponseWriter, id string, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	if id != "" {
		w.Header().Set("X-Request-ID", id)
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, id string, e *v1.APIError) {
	writeJSON(w, id, e.Status, v1.ErrorResponse{Error: v1.Error{Code: e.Code, Message: e.Message}})
}

// handleSolvers answers GET /v1/solvers with the sorted registry catalog —
// byte-for-byte the names cdgreedy -alg and cdbench resolve.
func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, "", errf(http.StatusMethodNotAllowed, v1.CodeMethodNotAllowed,
			"%s %s: use GET", r.Method, r.URL.Path))
		return
	}
	resp := v1.SolversResponse{Solvers: []v1.SolverInfo{}}
	for _, name := range solver.Names() {
		e, _ := solver.Lookup(name)
		resp.Solvers = append(resp.Solvers, v1.SolverInfo{Name: name, Summary: e.Summary})
	}
	writeJSON(w, "", http.StatusOK, resp)
}

// handleHealth answers GET /healthz. It never blocks on the worker pool and
// always answers 200 so load balancers can distinguish "saturated but alive"
// (429 on /v1/solve, ok here) from dead.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	uptime := time.Since(s.start)
	writeJSON(w, "", http.StatusOK, v1.Health{
		Status:        status,
		Draining:      s.draining.Load(),
		InFlight:      int(s.inFlight.Load()),
		Queued:        s.adm.queued(),
		UptimeNS:      uptime.Nanoseconds(),
		UptimeSeconds: uptime.Seconds(),
	})
}

// handleMetrics answers GET /metrics with the server collector's state,
// content-negotiated: a Prometheus scraper asking for text/plain (or
// OpenMetrics) gets the text exposition format, everything else gets the
// JSON snapshot exactly as before.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if promAccepted(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.PromContentType)
		_ = s.metrics.WriteProm(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.metrics.WriteJSON(w)
}

// promAccepted reports whether the Accept header asks for the Prometheus
// text format: any listed media type of text/plain or
// application/openmetrics-text. Wildcards and an absent header keep the
// JSON default, so existing clients are untouched.
func promAccepted(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		switch strings.TrimSpace(mt) {
		case "text/plain", "application/openmetrics-text":
			return true
		}
	}
	return false
}

// solveContext merges the three cancellation sources a solve runs under:
// the client connection (r.Context), the server's drain cancellation, and
// the request's own deadline (clamped by cfg.MaxDeadline).
func (s *Server) solveContext(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.solveCtx, cancel)
	d := time.Duration(deadlineMS) * time.Millisecond
	if s.cfg.MaxDeadline > 0 && (d <= 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	if d > 0 {
		tctx, tcancel := context.WithTimeout(ctx, d)
		return tctx, func() { tcancel(); stop(); cancel() }
	}
	return ctx, func() { stop(); cancel() }
}
