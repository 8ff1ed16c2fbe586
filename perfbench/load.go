package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	v1 "repro/api/v1"
)

// outcome is one request's timings and answer.
type outcome struct {
	r  *request
	id string
	// due is when the request should have been sent; picked is when a
	// sender took it, sent when the HTTP call began, done when the last
	// response byte (for churn: the summary line) arrived.
	due, picked, sent, done time.Time
	// freeConn reports whether a sender was waiting for the request when it
	// fell due.
	freeConn bool
	reqBytes int
	rspBytes int
	resp     *v1.SolveResponse
	summary  *v1.ChurnSummary
	// periodAt holds when each streamed period line arrived.
	periodAt []time.Time
	err      error
	// cpu and alloc are the process CPU time and heap bytes allocated
	// between sent and done; measured only in one-connection closed loops,
	// where nothing else runs in that interval.
	cpu   time.Duration
	alloc uint64
	// net is the latency net of the CPU time the hypervisor stole
	// meanwhile (see steal.go), set once the run is over.
	net time.Duration
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

func (o *outcome) ok() bool { return o.err == nil }

// cached reports a solve answered from the result cache.
func (o *outcome) cached() bool { return o.resp != nil && o.resp.Cached }

// client sends the generated requests over one shared transport that never
// opens more than conns connections.
type client struct {
	base string
	tr   *http.Transport
	http *http.Client
	seq  atomic.Int64
	// prefix keeps request IDs unique across the phases of a run.
	prefix string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, tr: tr, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func (c *client) newOutcome(r *request, due time.Time) *outcome {
	return &outcome{r: r, due: due, id: fmt.Sprintf("%sbench-%06d", c.prefix, c.seq.Add(1))}
}

// send performs o's request and records its timings and decoded answer.
// Transport errors and non-200 answers land in o.err.
func (c *client) send(ctx context.Context, o *outcome) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+o.r.path(), bytes.NewReader(o.r.body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", o.id)
	o.reqBytes = len(o.r.body)
	// Checks and replays rebuild bodies from the seed; holding every sent
	// body would make the generator's memory rival the server's.
	o.r.body = nil
	o.sent = time.Now()
	rsp, err := c.http.Do(req)
	if err != nil {
		o.done = time.Now()
		o.err = err
		return
	}
	defer rsp.Body.Close()
	if o.r.kind == kindChurn && rsp.StatusCode == http.StatusOK {
		o.err = readChurn(rsp.Body, o)
		return
	}
	raw, err := io.ReadAll(rsp.Body)
	o.done = time.Now()
	o.rspBytes = len(raw)
	switch {
	case err != nil:
		o.err = err
	case rsp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("HTTP %d: %s", rsp.StatusCode, bytes.TrimSpace(raw))
	default:
		var sr v1.SolveResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			o.err = fmt.Errorf("decode solve response: %w", err)
			return
		}
		o.resp = &sr
	}
}

// readChurn reads a /v1/churn stream line by line. The stream must end with
// a summary line and carry no error line.
func readChurn(body io.Reader, o *outcome) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		now := time.Now()
		o.rspBytes += len(sc.Bytes()) + 1
		var line v1.ChurnLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			o.done = now
			return fmt.Errorf("decode churn line: %w", err)
		}
		switch {
		case line.Error != nil:
			o.done = now
			return fmt.Errorf("churn error line: %s: %s", line.Error.Code, line.Error.Message)
		case line.Period != nil:
			o.periodAt = append(o.periodAt, now)
		case line.Summary != nil:
			o.done = now
			o.summary = line.Summary
		}
	}
	if o.done.IsZero() {
		o.done = time.Now()
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if o.summary == nil {
		return fmt.Errorf("churn stream ended without a summary line")
	}
	return nil
}

// openLoop sends request i, from take(i), at start+at[i], whatever the
// server's progress, over conns sender goroutines. Each sender takes the
// next arrival in due order, builds it and sleeps until it is due, so a due
// request needs one goroutine wake-up to be sent. An arrival that finds
// every sender busy waits for one, and its latency still counts from its
// due time.
func (c *client) openLoop(ctx context.Context, take func(int) *request, at []float64, conns int) []*outcome {
	outs := make([]*outcome, len(at))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < conns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(at) {
					return
				}
				o := c.newOutcome(take(i), start.Add(time.Duration(at[i]*float64(time.Second))))
				outs[i] = o
				if d := time.Until(o.due); d > 0 {
					o.freeConn = true
					timer.Reset(d)
					select {
					case <-ctx.Done():
						o.err = ctx.Err()
						return
					case <-timer.C:
					}
				}
				o.picked = time.Now()
				c.send(ctx, o)
			}
		}()
	}
	wg.Wait()
	var done []*outcome
	for _, o := range outs {
		if o != nil {
			done = append(done, o)
		}
	}
	return done
}

// closedLoop keeps conns senders busy back to back until dur has passed
// since the first send; next hands out requests in sequence order. It
// returns the outcomes and the time from the start to the last completion.
func (c *client) closedLoop(ctx context.Context, next func() *request, conns int, dur time.Duration) ([]*outcome, time.Duration) {
	var mu sync.Mutex
	var outs []*outcome
	var last time.Time
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				r := next()
				if r == nil {
					return
				}
				o := c.newOutcome(r, time.Now())
				o.freeConn = true
				o.picked = time.Now()
				c.send(ctx, o)
				mu.Lock()
				outs = append(outs, o)
				if o.done.After(last) {
					last = o.done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, last.Sub(start)
}

// serial sends requests one at a time over one connection until dur has
// passed since it began, or limit requests when limit > 0. It builds
// each body before its request is due, so generation stays outside every
// measured interval. The CPU time and heap allocation of each request are
// measured around it.
func (c *client) serial(ctx context.Context, body func(i int) *request, dur time.Duration, limit int) []*outcome {
	var outs []*outcome
	var ms runtime.MemStats
	end := time.Now().Add(dur)
	for i := 0; ctx.Err() == nil && time.Now().Before(end) && (limit == 0 || i < limit); i++ {
		r := body(i)
		runtime.ReadMemStats(&ms)
		alloc0, cpu0 := ms.TotalAlloc, processCPU()
		o := c.newOutcome(r, time.Now())
		o.freeConn = true
		o.picked = time.Now()
		c.send(ctx, o)
		runtime.ReadMemStats(&ms)
		o.cpu, o.alloc = processCPU()-cpu0, ms.TotalAlloc-alloc0
		outs = append(outs, o)
	}
	return outs
}
