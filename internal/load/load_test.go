package load_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/serve"
)

func newTarget(t testing.TB) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func runShort(t *testing.T, cfg load.Config) *load.Report {
	t.Helper()
	rep, err := load.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// TestRunAgainstServer drives a real in-process server with a mixed
// solve/churn load and checks the SLO invariants the harness reports on.
func TestRunAgainstServer(t *testing.T) {
	ts := newTarget(t)
	rep := runShort(t, load.Config{
		BaseURL:       ts.URL,
		Rate:          200,
		Duration:      300 * time.Millisecond,
		ChurnFraction: 0.3,
		N:             40,
		Periods:       2,
		Seed:          7,
	})
	if rep.Sent == 0 {
		t.Fatal("no requests sent")
	}
	if rep.Completed() == 0 {
		t.Fatalf("no requests completed: counts %v", rep.Counts)
	}
	for kind, byClass := range rep.Counts {
		for _, bad := range []string{load.Class5xx, load.ClassError, load.Class4xx} {
			if n := byClass[bad]; n > 0 {
				t.Errorf("kind %s: %d %s outcomes", kind, n, bad)
			}
		}
	}
	all, ok := rep.Latency["all"]
	if !ok || all.Count != rep.Completed() {
		t.Fatalf("merged latency count = %d, want %d", all.Count, rep.Completed())
	}
	if !(all.Min <= all.P50 && all.P50 <= all.P90 && all.P90 <= all.P99 && all.P99 <= all.Max) {
		t.Errorf("quantiles out of order: %+v", all)
	}
	if err := rep.CheckSLO(0, 0); err != nil {
		t.Errorf("CheckSLO: %v", err)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	for _, want := range []string{"throughput", "latency all", "rates:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
}

// TestRunDupMode drives a caching server with -dup-style duplicate replays
// and checks the report splits solve latencies into hit and miss paths with
// a meaningful hit rate.
func TestRunDupMode(t *testing.T) {
	ts := newTarget(t)
	rep := runShort(t, load.Config{
		BaseURL:     ts.URL,
		Rate:        150,
		Duration:    400 * time.Millisecond,
		DupFraction: 0.5,
		N:           40,
		Seed:        9,
	})
	hits, misses := rep.CacheHits(), rep.CacheMisses()
	if misses == 0 {
		t.Fatal("dup run recorded no cache misses (fresh instances must miss)")
	}
	if hits == 0 {
		t.Fatalf("dup run recorded no cache hits (counts %v, latency %v)", rep.Counts, rep.Latency)
	}
	if hits+misses != rep.Latency[load.KindSolve].Count {
		t.Fatalf("hit %d + miss %d != solve %d: sub-kinds must partition solves",
			hits, misses, rep.Latency[load.KindSolve].Count)
	}
	if hr := rep.HitRate(); hr <= 0 || hr >= 1 {
		t.Errorf("hit rate = %v, want strictly between 0 and 1", hr)
	}
	// Solve-only samples enter "all" exactly once, not re-counted per
	// sub-kind.
	if all := rep.Latency["all"].Count; all != rep.Completed() {
		t.Fatalf("merged latency count = %d, want %d", all, rep.Completed())
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "hit rate") {
		t.Errorf("Print output missing the cache line:\n%s", buf.String())
	}
}

// TestDupModeValidation rejects out-of-range dup fractions.
func TestDupModeValidation(t *testing.T) {
	for _, frac := range []float64{-0.1, 1.5} {
		cfg := load.Config{BaseURL: "http://x", Rate: 10, Duration: time.Second, DupFraction: frac}
		if _, err := load.Run(context.Background(), cfg); err == nil {
			t.Errorf("dup fraction %v: expected a validation error", frac)
		}
	}
}

// TestRunValidation checks each rejected configuration shape.
func TestRunValidation(t *testing.T) {
	bad := []load.Config{
		{Rate: 10, Duration: time.Second},            // no URL
		{BaseURL: "http://x", Duration: time.Second}, // no rate
		{BaseURL: "http://x", Rate: 10},              // no duration
		{BaseURL: "http://x", Rate: 10, Duration: 1, ChurnFraction: 1.5},
	}
	for i, cfg := range bad {
		if _, err := load.Run(context.Background(), cfg); err == nil {
			t.Errorf("config %d: expected a validation error", i)
		}
	}
}

// TestRunContextCancel checks cancellation stops scheduling promptly and
// still returns a report for what ran.
func TestRunContextCancel(t *testing.T) {
	ts := newTarget(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep, err := load.Run(ctx, load.Config{
		BaseURL:  ts.URL,
		Rate:     50,
		Duration: 30 * time.Second, // cancelled long before this
		N:        20,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if rep == nil {
		t.Fatal("nil report after cancel")
	}
}

// TestCheckSLOFailures exercises each SLO violation branch.
func TestCheckSLOFailures(t *testing.T) {
	ts := newTarget(t)
	rep := runShort(t, load.Config{
		BaseURL:  ts.URL,
		Rate:     100,
		Duration: 200 * time.Millisecond,
		N:        30,
		Seed:     5,
	})
	if err := rep.CheckSLO(time.Nanosecond, -1); err == nil {
		t.Error("expected a p99 SLO failure at 1ns")
	}
	if err := rep.CheckSLO(time.Hour, -1); err != nil {
		t.Errorf("p99 within an hour should pass: %v", err)
	}
	empty := &load.Report{}
	if err := empty.CheckSLO(0, -1); err == nil {
		t.Error("empty report should fail the completed-requests check")
	}
}

// Serving-side benchmarks: in-process client → httptest server → real
// solver, one request per iteration.
// Solve and churn run with the cache disabled so they keep measuring the
// full solve path; the Hit variant runs the default caching config, where
// every iteration after the first is a cache hit.
func benchServe(b *testing.B, cfg serve.Config, path string, body []byte) {
	b.Helper()
	ts := httptest.NewServer(serve.New(cfg).Handler())
	defer ts.Close()
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

func requestBody(b *testing.B, kind string) (string, []byte) {
	b.Helper()
	path, body, err := load.Body(load.Config{
		BaseURL: "http://bench", Rate: 1, Duration: time.Second,
		N: 100, Periods: 2, Seed: 11,
	}, kind)
	if err != nil {
		b.Fatalf("Body: %v", err)
	}
	return path, body
}

func BenchmarkServeSolve(b *testing.B) {
	path, body := requestBody(b, load.KindSolve)
	benchServe(b, serve.Config{CacheBytes: -1}, path, body)
}

func BenchmarkServeSolveHit(b *testing.B) {
	path, body := requestBody(b, load.KindSolve)
	benchServe(b, serve.Config{}, path, body)
}

func BenchmarkServeChurn(b *testing.B) {
	path, body := requestBody(b, load.KindChurn)
	benchServe(b, serve.Config{CacheBytes: -1}, path, body)
}
