package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	v1 "repro/api/v1"
	"repro/internal/obs"
	"repro/internal/serve"
)

// capture returns a Sink over a buffer and a function that flushes it and
// decodes every event it streamed.
func capture(t *testing.T) (*obs.Sink, func() []obs.Event) {
	t.Helper()
	var buf bytes.Buffer
	s := obs.NewSink(&buf)
	return s, func() []obs.Event {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		var out []obs.Event
		for dec := json.NewDecoder(&buf); dec.More(); {
			var e obs.Event
			if err := dec.Decode(&e); err != nil {
				t.Fatalf("sink line not an Event: %v", err)
			}
			out = append(out, e)
		}
		return out
	}
}

// getWithAccept issues a GET with an Accept header and returns the response
// plus the full body.
func getWithAccept(t *testing.T, url, accept string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestMetricsContentNegotiation: /metrics answers JSON by default and the
// Prometheus text format when the scraper asks for it.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":2}`, instanceJSON(10))
	if resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, data)
	}

	cases := []struct {
		accept string
		prom   bool
	}{
		{"", false},
		{"application/json", false},
		{"*/*", false},
		{"text/plain", true},
		{"text/plain; version=0.0.4", true},
		{"application/openmetrics-text", true},
		{"application/json, text/plain;q=0.5", true}, // any text/plain entry wins
	}
	for _, c := range cases {
		resp, body := getWithAccept(t, ts.URL+"/metrics", c.accept)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("accept %q: status %d", c.accept, resp.StatusCode)
		}
		ct := resp.Header.Get("Content-Type")
		if c.prom {
			if ct != obs.PromContentType {
				t.Errorf("accept %q: Content-Type %q, want %q", c.accept, ct, obs.PromContentType)
			}
			if !strings.Contains(body, "cd_serve_requests_total") {
				t.Errorf("accept %q: prom body lacks cd_serve_requests_total", c.accept)
			}
		} else {
			if !strings.HasPrefix(ct, "application/json") {
				t.Errorf("accept %q: Content-Type %q, want JSON", c.accept, ct)
			}
			if !strings.Contains(body, `"counters"`) {
				t.Errorf("accept %q: JSON body lacks counters", c.accept)
			}
		}
	}
}

// TestMetricsPromExposition lints the negotiated text output after real
// traffic: per-route families present, no duplicate TYPE declarations, no
// leaked _ns names.
func TestMetricsPromExposition(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":2}`, instanceJSON(10))
	for i := 0; i < 3; i++ {
		if resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve status %d: %s", resp.StatusCode, data)
		}
	}
	_, text := getWithAccept(t, ts.URL+"/metrics", "text/plain")

	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# TYPE ") {
			if strings.Contains(line, "_ns ") || strings.Contains(line, "_ns{") {
				t.Errorf("nanosecond name leaked into exposition: %q", line)
			}
			continue
		}
		name := strings.Fields(line)[2]
		if seen[name] {
			t.Errorf("duplicate family %s", name)
		}
		seen[name] = true
	}
	for _, want := range []string{
		"cd_serve_requests_total",
		"cd_serve_route_requests_total",
		"cd_serve_route_request_seconds",
		"cd_serve_route_in_flight",
		"cd_uptime_seconds",
	} {
		if !seen[want] {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	if !strings.Contains(text, `cd_serve_route_requests_total{route="solve"} 3`) {
		t.Errorf("per-route counter wrong:\n%s", text)
	}
}

// TestSpanTreeAcceptance is the tentpole acceptance check: one /v1/solve
// with an events-capturing collector yields a span tree linked from the
// HTTP request down to the solver rounds, all under the request ID.
func TestSpanTreeAcceptance(t *testing.T) {
	sink, events := capture(t)
	_, ts := newTestServer(t, serve.Config{Obs: sink})
	body := fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":3,"solver":"greedy2"}`, instanceJSON(25))
	resp, data := postJSON(t, ts.URL+"/v1/solve", body, map[string]string{"X-Request-ID": "trace-me"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, data)
	}
	ts.Close() // the request span ends after the response is written

	spans := map[string]*testSpan{}
	for _, e := range events() {
		switch e.Type {
		case obs.EvSpanStart:
			if e.Trace != "trace-me" {
				t.Errorf("span %s/%s under trace %q, want trace-me", e.Span, e.Name, e.Trace)
			}
			spans[e.Span] = &testSpan{id: e.Span, name: e.Name, parent: e.Parent}
		case obs.EvSpanEnd:
			if sp := spans[e.Span]; sp != nil {
				ev := e
				sp.end = &ev
			} else {
				t.Errorf("span_end %s/%s without a span_start", e.Span, e.Name)
			}
		}
	}

	byName := map[string][]*testSpan{}
	for _, sp := range spans {
		byName[sp.name] = append(byName[sp.name], sp)
	}
	handler := []string{obs.StageSrvDecode, obs.StageSrvFingerprint, obs.StageSrvCache, obs.StageSrvQueue,
		obs.StageSrvInstance, obs.StageSrvSolve, obs.StageSrvEncode}
	for _, name := range append([]string{"request.solve"}, handler...) {
		if len(byName[name]) != 1 {
			t.Fatalf("%d %q spans, want 1", len(byName[name]), name)
		}
	}
	root := byName["request.solve"][0]
	if root.parent != "" {
		t.Errorf("request span has parent %q", root.parent)
	}
	for _, name := range handler {
		if byName[name][0].parent != root.id {
			t.Errorf("%s stage not parented by the request span", name)
		}
	}
	solve := byName[obs.StageSrvSolve][0]
	rounds := byName[obs.StageRound]
	if len(rounds) != 3 {
		t.Fatalf("%d round stages, want 3", len(rounds))
	}
	for _, r := range rounds {
		if r.parent != solve.id {
			t.Errorf("round stage parented by %q, want the solve stage", r.parent)
		}
		if r.end == nil {
			t.Error("round stage never ended")
		} else if r.end.Fields["gain"] < 0 || r.end.Alg != "greedy2" {
			t.Errorf("round stage gain = %v alg = %q", r.end.Fields["gain"], r.end.Alg)
		}
	}
	if root.end == nil || root.end.Fields["status"] != 200 {
		t.Errorf("request span end = %+v, want status=200", root.end)
	}
	if solve.end == nil || solve.end.Fields["rounds"] != 3 {
		t.Errorf("solve span end = %+v, want rounds=3", solve.end)
	}
}

// testSpan is a reconstructed span-tree node.
type testSpan struct {
	id, name, parent string
	end              *obs.Event
}

// TestChurnRequestIDPropagates: the request ID reaches the churn loop's
// period stages and is echoed in the ndjson summary.
func TestChurnRequestIDPropagates(t *testing.T) {
	sink, read := capture(t)
	_, ts := newTestServer(t, serve.Config{Obs: sink})
	body := fmt.Sprintf(
		`{"instance":%s,"radius":1.5,"k":2,"periods":3,"arrival_rate":2,"depart_rate":1,"seed":7}`,
		instanceJSON(20))
	resp, data := postJSON(t, ts.URL+"/v1/churn", body, map[string]string{"X-Request-ID": "churn-trace"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("churn status %d: %s", resp.StatusCode, data)
	}
	ts.Close() // the request span ends after the summary line is written
	var sawSummary bool
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var l v1.ChurnLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("bad ndjson line %q: %v", line, err)
		}
		if l.Summary != nil {
			sawSummary = true
			if l.Summary.RequestID != "churn-trace" {
				t.Errorf("summary request_id = %q, want churn-trace", l.Summary.RequestID)
			}
		}
	}
	if !sawSummary {
		t.Fatal("no summary line")
	}
	// Period stages hang off the churn stage under the same trace, each
	// with the loop's solver and its period's figures.
	events := read()
	churn, decoded := "", 0
	for _, e := range events {
		if e.Type == obs.EvSpanStart && e.Name == obs.StageSrvChurn {
			churn = e.Span
		}
		if e.Type == obs.EvSpanEnd && e.Name == obs.StageSrvDecode && e.Trace == "churn-trace" {
			decoded++
		}
	}
	if decoded != 1 {
		t.Errorf("%d %s stages under the request ID, want 1", decoded, obs.StageSrvDecode)
	}
	periods, stamped := 0, 0
	for _, e := range events {
		if e.Type != obs.EvSpanEnd || e.Name != obs.StageChurnPeriod {
			continue
		}
		periods++
		if e.Trace == "churn-trace" && churn != "" && e.Parent == churn {
			stamped++
		}
		if e.Alg != "greedy2" || e.Fields["n"] < 1 || e.Fields["objective"] <= 0 {
			t.Errorf("period %v stage: alg %q fields %v", e.Fields["period"], e.Alg, e.Fields)
		}
		for _, f := range []string{"arrivals", "departures"} {
			if _, ok := e.Fields[f]; !ok {
				t.Errorf("period %v stage has no %s", e.Fields["period"], f)
			}
		}
	}
	if periods != 3 || stamped != periods {
		t.Errorf("%d/%d period stages under the churn stage and the request ID, want 3/3", stamped, periods)
	}
}

// TestMetricsAndPprofConcurrent hammers /metrics (both formats) and
// /debug/pprof while solves run — meaningful under -race: the exposition
// paths read what request handling writes.
func TestMetricsAndPprofConcurrent(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":2}`, instanceJSON(10))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	hit := func(f func() (int, string)) {
		defer wg.Done()
		for ctx.Err() == nil {
			if code, what := f(); code != http.StatusOK {
				select {
				case errs <- fmt.Sprintf("%s: status %d", what, code):
				default:
				}
				return
			}
		}
	}
	get := func(path, accept string) (int, string) {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return http.StatusOK, "" // context cancellation at deadline is fine
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, path + " " + accept
	}
	for i := 0; i < 2; i++ {
		wg.Add(3)
		go hit(func() (int, string) { return get("/metrics", "") })
		go hit(func() (int, string) { return get("/metrics", "text/plain") })
		go hit(func() (int, string) { return get("/debug/pprof/cmdline", "") })
	}
	wg.Add(1)
	go hit(func() (int, string) {
		resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil)
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, string(data)
		}
		return http.StatusOK, ""
	})
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestHealthzUptimeAndDraining: the two new healthz fields move as the
// server's state does.
func TestHealthzUptimeAndDraining(t *testing.T) {
	started, release := resetBlock()
	srv, ts := newTestServer(t, serve.Config{Workers: 1})
	var h v1.Health
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Draining || h.Status != "ok" {
		t.Fatalf("fresh server healthz = %+v", h)
	}
	if h.UptimeSeconds <= 0 || h.UptimeNS <= 0 {
		t.Errorf("uptime not positive: %+v", h)
	}
	if got, want := h.UptimeSeconds, float64(h.UptimeNS)/1e9; got > 2*want+1 {
		t.Errorf("uptime fields disagree: %v s vs %v ns", h.UptimeSeconds, h.UptimeNS)
	}

	// Hold a solve in flight, then drain: healthz must flip to draining
	// while the blocked request finishes.
	body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"solver":"test-block"}`, instanceJSON(5))
	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", body, nil)
		done <- resp.StatusCode
	}()
	<-started
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background(), 5*time.Second) }()
	waitHealthz(t, ts.URL, func(h v1.Health) bool { return h.Draining })
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "draining" || !h.Draining {
		t.Errorf("draining healthz = %+v", h)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("in-flight solve finished with %d during drain", code)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
}
