// Package load is the serving stack's SLO harness: an open-loop load
// generator that drives a cdserved instance over HTTP with Poisson arrivals
// and reports client-side latency distributions.
//
// Open-loop means arrivals are scheduled by the clock, not by responses: a
// slow server does not slow the generator down, so saturation shows up as
// rising latency, 429s, and drops — the failure modes a closed-loop client
// hides (coordinated omission). The arrival process is Poisson at the
// configured rate, each arrival is independently a solve or a churn request
// per the configured mix, and every request body is drawn from a small pool
// of deterministically generated instances (the Seed fixes both the pool
// and the arrival randomness).
//
// The result is a Report: counts by outcome class and exact client-side
// latency quantiles per request kind.
package load

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	v1 "repro/api/v1"
	"repro/internal/pointset"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// Defaults for Config's zero values.
const (
	DefaultTimeout     = 30 * time.Second
	DefaultMaxInFlight = 1024
	DefaultBodies      = 4
)

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the target server's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// BaseURLs, when non-empty, spreads arrivals uniformly (by the run's
	// deterministic randomness) across several nodes — the cluster-aware
	// target list, e.g. every node of a cdserved cluster. BaseURL is
	// folded in as one more target when it is set too.
	BaseURLs []string
	// Rate is the offered load in requests per second (Poisson arrivals).
	Rate float64
	// Duration is how long arrivals are generated; in-flight requests are
	// then drained (bounded by Timeout), not abandoned.
	Duration time.Duration
	// ChurnFraction is the probability an arrival is a /v1/churn request
	// (the rest are /v1/solve). 0 is all-solve, 1 all-churn.
	ChurnFraction float64
	// N and Dim size the generated instances (defaults 200 points in 2-D).
	N, Dim int
	// K is the broadcast count per request (default 4).
	K int
	// Radius is the coverage radius (default 1.0 on the paper's 4×4 box).
	Radius float64
	// Periods is the churn-loop length for churn requests (default 3).
	Periods int
	// ArrivalRate / DepartRate drive churn-request population dynamics
	// (defaults 4 and 2 users per period).
	ArrivalRate, DepartRate float64
	// Solver names the registry algorithm ("" = server default).
	Solver string
	// DeadlineMS is the per-request deadline forwarded to the server; 0
	// sends none.
	DeadlineMS int64
	// DupFraction is the probability a solve arrival replays a previously
	// sent solve body — a guaranteed byte-identical duplicate, so a caching
	// server answers it from the solve cache (or collapses it onto an
	// in-flight identical solve). When positive, non-duplicate solve
	// arrivals each get a freshly generated unique instance (a guaranteed
	// cache miss) instead of drawing from the small shared pool, so the
	// hit/miss split in the report is controlled by this knob alone.
	// 0 (the default) keeps the pooled-body behavior.
	DupFraction float64
	// Seed fixes the instance pool and all arrival randomness.
	Seed uint64
	// Timeout bounds each HTTP request client-side; 0 = DefaultTimeout.
	Timeout time.Duration
	// MaxInFlight caps concurrently outstanding requests; arrivals past it
	// are recorded as dropped instead of growing goroutines without bound.
	// 0 = DefaultMaxInFlight.
	MaxInFlight int
	// Bodies is the size of the pre-generated request-body pool; 0 =
	// DefaultBodies.
	Bodies int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.N <= 0 {
		out.N = 200
	}
	if out.Dim <= 0 {
		out.Dim = 2
	}
	if out.K <= 0 {
		out.K = 4
	}
	if out.Radius <= 0 {
		out.Radius = 1.0
	}
	if out.Periods <= 0 {
		out.Periods = 3
	}
	if out.ArrivalRate <= 0 {
		out.ArrivalRate = 4
	}
	if out.DepartRate <= 0 {
		out.DepartRate = 2
	}
	if out.Timeout <= 0 {
		out.Timeout = DefaultTimeout
	}
	if out.MaxInFlight <= 0 {
		out.MaxInFlight = DefaultMaxInFlight
	}
	if out.Bodies <= 0 {
		out.Bodies = DefaultBodies
	}
	return out
}

// targets is the effective target list: BaseURL plus BaseURLs, blanks
// dropped, order preserved.
func (c Config) targets() []string {
	var out []string
	for _, u := range append([]string{c.BaseURL}, c.BaseURLs...) {
		if u != "" {
			out = append(out, u)
		}
	}
	return out
}

func (c Config) validate() error {
	if len(c.targets()) == 0 {
		return errors.New("load: no target URL")
	}
	if !(c.Rate > 0) || math.IsInf(c.Rate, 0) {
		return fmt.Errorf("load: rate = %v, want positive and finite", c.Rate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("load: duration = %v, want positive", c.Duration)
	}
	if c.ChurnFraction < 0 || c.ChurnFraction > 1 || math.IsNaN(c.ChurnFraction) {
		return fmt.Errorf("load: churn fraction = %v, want in [0, 1]", c.ChurnFraction)
	}
	if c.DupFraction < 0 || c.DupFraction > 1 || math.IsNaN(c.DupFraction) {
		return fmt.Errorf("load: dup fraction = %v, want in [0, 1]", c.DupFraction)
	}
	return nil
}

// Request kinds. KindSolveHit and KindSolveMiss are latency sub-kinds of
// solve: every 200 solve response files under KindSolve and additionally
// under hit or miss per its "cached" field, so a -dup run reports the two
// serving paths' quantiles separately.
const (
	KindSolve     = "solve"
	KindChurn     = "churn"
	KindSolveHit  = "hit"
	KindSolveMiss = "miss"
)

// Outcome classes a completed request is filed under.
const (
	ClassOK      = "ok"      // 200, complete result
	ClassPartial = "partial" // 200, deadline/drain-bounded prefix
	Class429     = "429"     // admission queue full
	Class503     = "503"     // draining or deadline-while-queued
	Class4xx     = "4xx"     // any other client error
	Class5xx     = "5xx"     // server error — an SLO violation
	ClassError   = "error"   // transport error or unparseable response
	ClassDropped = "dropped" // never sent: MaxInFlight exceeded
)

// bodyPool holds the pre-marshalled request bodies for one kind.
type bodyPool struct {
	kind   string
	path   string
	bodies [][]byte
}

func (p *bodyPool) pick(rng *xrand.Rand) []byte {
	return p.bodies[rng.Intn(len(p.bodies))]
}

// instanceBox is the generation domain: the paper's [0,4]^dim box.
func instanceBox(dim int) pointset.Box {
	lo, hi := make(vec.V, dim), make(vec.V, dim)
	for d := range hi {
		hi[d] = 4
	}
	return pointset.Box{Lo: lo, Hi: hi}
}

// solveBody generates one freshly sampled solve request body.
func solveBody(cfg Config, box pointset.Box, rng *xrand.Rand) ([]byte, error) {
	set, err := pointset.GenUniform(cfg.N, box, pointset.UnitWeight, rng)
	if err != nil {
		return nil, err
	}
	return json.Marshal(v1.SolveRequest{
		Instance: set, Radius: cfg.Radius, K: cfg.K, Solver: cfg.Solver,
		DeadlineMS: cfg.DeadlineMS,
	})
}

// dupHistoryCap bounds the replayable-body history in dup mode; a full
// history replaces a random slot, so replays stay spread over recent work.
const dupHistoryCap = 512

// solveSource picks the next solve request body. In pooled mode (DupFraction
// 0) it draws from the small pre-generated pool. In dup mode a duplicate
// arrival replays a random previously sent body byte-for-byte, and every
// other arrival generates a fresh unique instance — a guaranteed cache miss
// — and records it for future replay.
type solveSource struct {
	cfg     Config
	box     pointset.Box
	pool    *bodyPool
	history [][]byte
}

func (s *solveSource) next(rng *xrand.Rand) ([]byte, error) {
	if s.cfg.DupFraction <= 0 {
		return s.pool.pick(rng), nil
	}
	if len(s.history) > 0 && rng.Float64() < s.cfg.DupFraction {
		return s.history[rng.Intn(len(s.history))], nil
	}
	body, err := solveBody(s.cfg, s.box, rng)
	if err != nil {
		return nil, err
	}
	if len(s.history) < dupHistoryCap {
		s.history = append(s.history, body)
	} else {
		s.history[rng.Intn(len(s.history))] = body
	}
	return body, nil
}

// genBodies builds the deterministic request-body pool. Solve and churn
// requests reuse the serving wire schema types, so the harness can never
// drift from the API it measures.
func genBodies(cfg Config, rng *xrand.Rand) (solve, churn *bodyPool, err error) {
	box := instanceBox(cfg.Dim)
	solve = &bodyPool{kind: KindSolve, path: "/v1/solve"}
	churn = &bodyPool{kind: KindChurn, path: "/v1/churn"}
	for i := 0; i < cfg.Bodies; i++ {
		set, err := pointset.GenUniform(cfg.N, box, pointset.UnitWeight, rng)
		if err != nil {
			return nil, nil, err
		}
		sb, err := json.Marshal(v1.SolveRequest{
			Instance: set, Radius: cfg.Radius, K: cfg.K, Solver: cfg.Solver,
			DeadlineMS: cfg.DeadlineMS,
		})
		if err != nil {
			return nil, nil, err
		}
		solve.bodies = append(solve.bodies, sb)
		cb, err := json.Marshal(v1.ChurnRequest{
			Instance: set, Radius: cfg.Radius, K: cfg.K, Solver: cfg.Solver,
			Periods: cfg.Periods, ArrivalRate: cfg.ArrivalRate,
			DepartRate: cfg.DepartRate, Seed: cfg.Seed + uint64(i),
			WarmStart: true, DeadlineMS: cfg.DeadlineMS,
		})
		if err != nil {
			return nil, nil, err
		}
		churn.bodies = append(churn.bodies, cb)
	}
	return solve, churn, nil
}

// Body returns the route path and one deterministic request body for the
// given kind (KindSolve or KindChurn) under cfg's instance parameters —
// for benchmarks and smoke checks that want a single representative
// request without running the generator loop.
func Body(cfg Config, kind string) (path string, body []byte, err error) {
	cfg = cfg.withDefaults()
	cfg.Bodies = 1
	solve, churn, err := genBodies(cfg, xrand.New(cfg.Seed))
	if err != nil {
		return "", nil, err
	}
	switch kind {
	case KindSolve:
		return solve.path, solve.bodies[0], nil
	case KindChurn:
		return churn.path, churn.bodies[0], nil
	default:
		return "", nil, fmt.Errorf("load: unknown request kind %q", kind)
	}
}

// arrivals is the open-loop schedule: Poisson arrival offsets from the
// start of the run, each the previous offset plus an exponential gap. The
// gaps come from their own stream, so the schedule depends on Seed and Rate
// alone and never on how long the generator spends between arrivals.
type arrivals struct {
	rng  *xrand.Rand
	rate float64
	at   time.Duration
}

func newArrivals(cfg Config) *arrivals {
	return &arrivals{rng: xrand.New(cfg.Seed).Split(), rate: cfg.Rate}
}

// next returns the offset of the next arrival from the start of the run.
func (a *arrivals) next() time.Duration {
	a.at += time.Duration(a.rng.ExpFloat64() / a.rate * float64(time.Second))
	return a.at
}

// recorder accumulates outcomes; one mutex is plenty at harness rates.
type recorder struct {
	mu     sync.Mutex
	counts map[string]map[string]int // kind → class → count
	lats   map[string][]time.Duration
}

func newRecorder() *recorder {
	return &recorder{
		counts: map[string]map[string]int{KindSolve: {}, KindChurn: {}},
		lats:   map[string][]time.Duration{},
	}
}

func (r *recorder) add(kind, class string, lat time.Duration, cached bool) {
	r.mu.Lock()
	r.counts[kind][class]++
	if class == ClassOK || class == ClassPartial {
		r.lats[kind] = append(r.lats[kind], lat)
		if kind == KindSolve {
			// The hit/miss sub-kinds split the same samples by serving
			// path; buildReport keeps them out of the "all" merge.
			sub := KindSolveMiss
			if cached {
				sub = KindSolveHit
			}
			r.lats[sub] = append(r.lats[sub], lat)
		}
	}
	r.mu.Unlock()
}

// Run drives the target for cfg.Duration and returns the report. ctx
// cancellation stops scheduling new arrivals early; what is already in
// flight still completes and is counted.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	rng := xrand.New(cfg.Seed)
	targets := cfg.targets()
	solvePool, churnPool, err := genBodies(cfg, rng)
	if err != nil {
		return nil, err
	}
	solveSrc := &solveSource{cfg: cfg, box: instanceBox(cfg.Dim), pool: solvePool}

	client := &http.Client{Timeout: cfg.Timeout}
	rec := newRecorder()
	var wg sync.WaitGroup
	var inFlight int64
	var mu sync.Mutex // guards inFlight
	var sent, seq int64

	sched := newArrivals(cfg)
	start := time.Now()
	timer := time.NewTimer(0)
	<-timer.C
	defer timer.Stop()

	for {
		at := sched.next()
		if at > cfg.Duration {
			break
		}
		due := start.Add(at)
		timer.Reset(time.Until(due))
		select {
		case <-ctx.Done():
			timer.Stop()
			goto done
		case <-timer.C:
		}

		pool := solvePool
		if rng.Float64() < cfg.ChurnFraction {
			pool = churnPool
		}
		mu.Lock()
		over := inFlight >= int64(cfg.MaxInFlight)
		if !over {
			inFlight++
		}
		mu.Unlock()
		if over {
			rec.add(pool.kind, ClassDropped, 0, false)
			continue
		}
		sent++
		seq++
		id := "load-" + strconv.FormatInt(seq, 10)
		var body []byte
		if pool.kind == KindSolve {
			if body, err = solveSrc.next(rng); err != nil {
				return nil, err
			}
		} else {
			body = pool.pick(rng)
		}
		base := targets[0]
		if len(targets) > 1 {
			base = targets[rng.Intn(len(targets))]
		}
		wg.Add(1)
		go func(base string, pool *bodyPool, body []byte, id string, due time.Time) {
			defer wg.Done()
			class, cached, lat := fire(client, base, pool, body, id, due)
			rec.add(pool.kind, class, lat, cached)
			mu.Lock()
			inFlight--
			mu.Unlock()
		}(base, pool, body, id, due)
	}
done:
	wg.Wait()
	elapsed := time.Since(start)
	return buildReport(cfg, elapsed, sent, rec), nil
}

// fire sends one request and classifies the outcome. Latency is measured
// from the arrival's scheduled due time to the full response body having
// been read, so a generator running late charges its lateness to the
// request — for churn streams it includes every period line, which is what
// a real client pays. cached reports whether a 200 solve response was
// served from the target's solve cache.
func fire(client *http.Client, base string, pool *bodyPool, body []byte, id string, due time.Time) (string, bool, time.Duration) {
	req, err := http.NewRequest(http.MethodPost, base+pool.path, bytes.NewReader(body))
	if err != nil {
		return ClassError, false, 0
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := client.Do(req)
	if err != nil {
		return ClassError, false, time.Since(due)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		partial, cached, err := readResult(pool.kind, resp.Body)
		lat := time.Since(due)
		if err != nil {
			return ClassError, false, lat
		}
		if partial {
			return ClassPartial, cached, lat
		}
		return ClassOK, cached, lat
	case resp.StatusCode == http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return Class429, false, time.Since(due)
	case resp.StatusCode == http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		return Class503, false, time.Since(due)
	case resp.StatusCode >= 500:
		io.Copy(io.Discard, resp.Body)
		return Class5xx, false, time.Since(due)
	default:
		io.Copy(io.Discard, resp.Body)
		return Class4xx, false, time.Since(due)
	}
}

// readResult consumes a 200 response body and reports whether the result
// was partial (deadline- or drain-bounded) and, for solves, whether it was
// served from the solve cache.
func readResult(kind string, body io.Reader) (partial, cached bool, err error) {
	if kind == KindSolve {
		var res v1.SolveResponse
		if err := json.NewDecoder(body).Decode(&res); err != nil {
			return false, false, err
		}
		io.Copy(io.Discard, body)
		return res.Partial, res.Cached, nil
	}
	// Churn: an ndjson stream; the summary (or error) line decides.
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	sawSummary := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var l v1.ChurnLine
		if err := json.Unmarshal(line, &l); err != nil {
			return false, false, err
		}
		if l.Error != nil {
			return false, false, fmt.Errorf("load: in-band churn error %q", l.Error.Code)
		}
		if l.Summary != nil {
			sawSummary = true
			partial = l.Summary.Partial
		}
	}
	if err := sc.Err(); err != nil {
		return false, false, err
	}
	if !sawSummary {
		return false, false, errors.New("load: churn stream ended without a summary line")
	}
	return partial, false, nil
}
