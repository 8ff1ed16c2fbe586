package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	v1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/vec"
)

// Test-only solvers registered alongside the real catalog: one that blocks
// until released (admission/drain tests) and one that commits a round every
// few milliseconds (deadline/anytime tests). Both honor the anytime
// contract: on cancellation they return the committed prefix with ctx.Err().
var (
	blockMu      sync.Mutex
	blockStarted chan struct{}
	blockRelease chan struct{}
)

// resetBlock arms fresh channels for a test using the test-block solver.
func resetBlock() (started, release chan struct{}) {
	blockMu.Lock()
	defer blockMu.Unlock()
	blockStarted = make(chan struct{}, 64)
	blockRelease = make(chan struct{})
	return blockStarted, blockRelease
}

func blockChans() (started, release chan struct{}) {
	blockMu.Lock()
	defer blockMu.Unlock()
	return blockStarted, blockRelease
}

type blockAlg struct{}

func (blockAlg) Name() string { return "test-block" }

func (blockAlg) Run(ctx context.Context, in *reward.Instance, k int) (*core.Result, error) {
	started, release := blockChans()
	started <- struct{}{}
	res := &core.Result{Algorithm: "test-block"}
	select {
	case <-ctx.Done():
		return res, ctx.Err()
	case <-release:
	}
	for j := 0; j < k; j++ {
		res.Centers = append(res.Centers, append(vec.V{}, in.Set.Point(0)...))
		res.Gains = append(res.Gains, 0)
	}
	return res, nil
}

type slowAlg struct{}

func (slowAlg) Name() string { return "test-slow" }

func (slowAlg) Run(ctx context.Context, in *reward.Instance, k int) (*core.Result, error) {
	res := &core.Result{Algorithm: "test-slow"}
	for j := 0; j < k; j++ {
		select {
		case <-ctx.Done():
			return res, ctx.Err()
		case <-time.After(15 * time.Millisecond):
		}
		res.Centers = append(res.Centers, append(vec.V{}, in.Set.Point(0)...))
		res.Gains = append(res.Gains, 1)
		res.Total++
	}
	return res, nil
}

func init() {
	resetBlock()
	for _, e := range []solver.Entry{
		{Name: "test-block", Summary: "test: blocks until released or cancelled",
			New: func(solver.Options) core.Algorithm { return blockAlg{} }},
		{Name: "test-slow", Summary: "test: one round per 15ms",
			New: func(solver.Options) core.Algorithm { return slowAlg{} }},
	} {
		if err := solver.Register(e); err != nil {
			panic(err)
		}
	}
}

// newTestServer mounts a Server on httptest and tears it down with the test.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// instanceJSON builds a small n-user 2-D instance literal.
func instanceJSON(n int) string {
	var b strings.Builder
	b.WriteString(`{"dim":2,"points":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", i%5, i/5)
	}
	b.WriteString(`]}`)
	return b.String()
}

func postJSON(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// decodeSet parses an instance literal through the shared pointset codec.
func decodeSet(s string) (*pointset.Set, error) {
	var set pointset.Set
	if err := json.Unmarshal([]byte(s), &set); err != nil {
		return nil, err
	}
	return &set, nil
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

// churnStream decodes a /v1/churn ndjson body into its period lines and its
// summary. A malformed line, an in-band error line, a period after the
// summary or a missing summary is an error.
func churnStream(data []byte) ([]v1.ChurnPeriod, *v1.ChurnSummary, error) {
	var periods []v1.ChurnPeriod
	var summary *v1.ChurnSummary
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var line v1.ChurnLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, nil, fmt.Errorf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != nil:
			return nil, nil, fmt.Errorf("stream error: %+v", line.Error)
		case line.Period != nil:
			if summary != nil {
				return nil, nil, errors.New("period line after summary")
			}
			periods = append(periods, *line.Period)
		case line.Summary != nil:
			summary = line.Summary
		default:
			return nil, nil, fmt.Errorf("empty stream line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if summary == nil {
		return nil, nil, errors.New("stream ended without a summary line")
	}
	return periods, summary, nil
}

// TestSolveBasic: a real solver end to end — result fields, per-round
// telemetry, request-id echo, and agreement with a direct registry run.
func TestSolveBasic(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	body := fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":3,"solver":"greedy2"}`, instanceJSON(25))
	resp, data := postJSON(t, ts.URL+"/v1/solve", body, map[string]string{"X-Request-ID": "test-42"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out v1.SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.RequestID != "test-42" || resp.Header.Get("X-Request-ID") != "test-42" {
		t.Errorf("request id not echoed: body %q header %q", out.RequestID, resp.Header.Get("X-Request-ID"))
	}
	if out.Partial {
		t.Error("un-deadlined solve marked partial")
	}
	if out.Solver != "greedy2" || out.Norm != "l2" || out.K != 3 || out.N != 25 {
		t.Errorf("echo fields wrong: %+v", out)
	}
	if len(out.Centers) != 3 || len(out.Gains) != 3 || len(out.Rounds) != 3 {
		t.Fatalf("want 3 centers/gains/rounds, got %d/%d/%d",
			len(out.Centers), len(out.Gains), len(out.Rounds))
	}
	var sum float64
	for i, rd := range out.Rounds {
		if rd.Round != i+1 || rd.Gain != out.Gains[i] {
			t.Errorf("round %d: %+v vs gain %v", i, rd, out.Gains[i])
		}
		if rd.WallNS <= 0 {
			t.Errorf("round %d: wall_ns = %d", i, rd.WallNS)
		}
		sum += rd.Gain
	}
	if out.Total <= 0 || out.Total > out.MaxReward {
		t.Errorf("total %v outside (0, %v]", out.Total, out.MaxReward)
	}
	// The served result must match a direct registry run bit for bit.
	set, err := decodeSet(instanceJSON(25))
	if err != nil {
		t.Fatal(err)
	}
	in, err := reward.NewInstance(set, norm.L2{}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := solver.New("greedy2", solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := alg.Run(context.Background(), in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Total != want.Total {
		t.Errorf("served total %v != direct %v", out.Total, want.Total)
	}
	for i := range want.Centers {
		for d := range want.Centers[i] {
			if out.Centers[i][d] != want.Centers[i][d] {
				t.Errorf("center %d differs: %v vs %v", i, out.Centers[i], want.Centers[i])
			}
		}
	}
}

// TestSolveDeadlinePartial: a deadline-bounded request answers 200 with the
// valid anytime prefix and partial: true.
func TestSolveDeadlinePartial(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":50,"solver":"test-slow","deadline_ms":60}`,
		instanceJSON(50))
	resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out v1.SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Partial {
		t.Fatal("deadline-bounded solve not marked partial")
	}
	if len(out.Centers) == 0 || len(out.Centers) >= 50 {
		t.Errorf("partial prefix has %d centers, want 1..49", len(out.Centers))
	}
	if len(out.Gains) != len(out.Centers) {
		t.Errorf("gains %d != centers %d", len(out.Gains), len(out.Centers))
	}
}

// TestSolversCatalog: /v1/solvers returns exactly the registry names, sorted
// — the same strings cdgreedy -alg resolves.
func TestSolversCatalog(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	var out v1.SolversResponse
	if resp := getJSON(t, ts.URL+"/v1/solvers", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := solver.Names()
	if len(out.Solvers) != len(want) {
		t.Fatalf("catalog has %d entries, registry %d", len(out.Solvers), len(want))
	}
	for i, info := range out.Solvers {
		if info.Name != want[i] {
			t.Errorf("catalog[%d] = %q, want %q", i, info.Name, want[i])
		}
		if info.Summary == "" {
			t.Errorf("catalog[%d] %q has no summary", i, info.Name)
		}
	}
	// The exhaustive baseline must be served alongside the built-ins.
	found := false
	for _, info := range out.Solvers {
		if info.Name == "exhaustive" {
			found = true
		}
	}
	if !found {
		t.Error("exhaustive baseline missing from the served catalog")
	}
}

// TestHealthAndMetrics: the liveness and metrics endpoints answer with
// consistent shapes, and served requests show up in the counters.
func TestHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	var h v1.Health
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if h.Status != "ok" || h.InFlight != 0 || h.UptimeNS <= 0 {
		t.Errorf("healthz = %+v", h)
	}
	body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":1}`, instanceJSON(5))
	if resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, data)
	}
	var snap obs.Snapshot
	if resp := getJSON(t, ts.URL+"/metrics", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if snap.Counters[obs.CtrSrvRequests] < 1 || snap.Counters[obs.CtrSrvAccepted] < 1 {
		t.Errorf("request counters missing: %v", snap.Counters)
	}
	if snap.Counters[obs.CtrRounds] < 1 {
		t.Errorf("solver telemetry not aggregated into server metrics: %v", snap.Counters)
	}
}

// TestChurnStreams: /v1/churn streams one JSON line per period plus a final
// summary, with warm starts honored inside the loop.
func TestChurnStreams(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	body := fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":2,"periods":4,"arrival_rate":2,"depart_rate":1,"warm_start":true,"index":"grid","seed":7}`,
		instanceJSON(20))
	resp, data := postJSON(t, ts.URL+"/v1/churn", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	periods, summary, err := churnStream(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(periods) != 4 || summary.Periods != 4 || summary.Partial {
		t.Fatalf("want 4 complete periods, got %d streamed, summary %+v", len(periods), summary)
	}
	for i, p := range periods {
		if p.Period != i {
			t.Errorf("period line %d has index %d", i, p.Period)
		}
		if p.Objective <= 0 || p.Objective > p.MaxReward {
			t.Errorf("period %d objective %v outside (0, %v]", i, p.Objective, p.MaxReward)
		}
	}
	if summary.MeanSatisfaction <= 0 || summary.MeanSatisfaction > 1 {
		t.Errorf("mean satisfaction %v", summary.MeanSatisfaction)
	}
}

// TestChurnDeadlinePartial: a churn deadline ends the stream early and the
// summary carries partial: true.
func TestChurnDeadlinePartial(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":20,"periods":500,"arrival_rate":2,"depart_rate":1,"solver":"test-slow","deadline_ms":80}`,
		instanceJSON(20))
	resp, data := postJSON(t, ts.URL+"/v1/churn", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	_, summary, err := churnStream(data)
	if err != nil {
		t.Fatal(err)
	}
	if !summary.Partial {
		t.Error("deadline-bounded churn not marked partial")
	}
	if summary.Periods >= 500 {
		t.Errorf("completed %d periods under an 80ms deadline", summary.Periods)
	}
}
