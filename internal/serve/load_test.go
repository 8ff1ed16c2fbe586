package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	v1 "repro/api/v1"
	"repro/internal/obs"
	"repro/internal/serve"
)

// waitHealthz polls /healthz until cond holds or the deadline passes.
func waitHealthz(t *testing.T, url string, cond func(v1.Health) bool) v1.Health {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var h v1.Health
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cond(h) {
			return h
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("healthz never reached the expected state; last %+v", h)
	return h
}

// TestAdmissionSaturation pins the robustness core: with 1 worker and a
// queue of 1, a third concurrent solve is answered 429 with Retry-After
// immediately — no unbounded queueing — while /healthz stays responsive.
// Run under -race this also exercises the pool's concurrency.
func TestAdmissionSaturation(t *testing.T) {
	started, release := resetBlock()
	srv, ts := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 1})
	body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"solver":"test-block"}`, instanceJSON(5))

	type result struct {
		status int
		data   []byte
	}
	results := make(chan result, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil)
			results <- result{resp.StatusCode, data}
		}()
	}
	// Wait until one solve is running and the other is queued: the running
	// one signals started, and healthz reports 2 in flight.
	<-started
	waitHealthz(t, ts.URL, func(h v1.Health) bool { return h.InFlight == 2 })

	// The pool is saturated: the next request must bounce, not wait.
	resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status %d, want 429 (%s)", resp.StatusCode, data)
	}
	// Retry-After must be the integer-seconds form (RFC 9110): clients and
	// proxies parse it as a delay, so "1.5" or an empty value is a bug.
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without a Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", ra)
	}
	if e := decodeError(t, data); e.Code != v1.CodeQueueFull {
		t.Errorf("code %q, want %q", e.Code, v1.CodeQueueFull)
	}
	// Liveness is independent of the worker pool.
	h := waitHealthz(t, ts.URL, func(h v1.Health) bool { return h.Status == "ok" })
	if h.InFlight != 2 || h.Queued != 1 {
		t.Errorf("healthz under saturation = %+v, want 2 in flight / 1 queued", h)
	}

	// Release the pool: both admitted solves must complete cleanly.
	close(release)
	wg.Wait()
	close(results)
	for r := range results {
		if r.status != http.StatusOK {
			t.Errorf("admitted solve finished %d: %s", r.status, r.data)
		}
	}
	snap := srv.Metrics().Snapshot()
	if snap.Counters[obs.CtrSrvQueueFull] != 1 {
		t.Errorf("queue_full counter = %d, want 1", snap.Counters[obs.CtrSrvQueueFull])
	}
	if snap.Counters[obs.CtrSrvAccepted] != 2 {
		t.Errorf("accepted counter = %d, want 2", snap.Counters[obs.CtrSrvAccepted])
	}
}

// TestQueuedDeadline: a request whose deadline expires while it is still
// waiting for a worker slot answers 503 deadline_while_queued, and the
// stuck-free pool serves it fine once capacity returns.
func TestQueuedDeadline(t *testing.T) {
	started, release := resetBlock()
	_, ts := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 4})
	blockBody := fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"solver":"test-block"}`, instanceJSON(5))

	done := make(chan struct{})
	go func() {
		defer close(done)
		postJSON(t, ts.URL+"/v1/solve", blockBody, nil)
	}()
	<-started

	// Queued behind the blocked worker with a 30ms deadline: must give up.
	body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":1,"deadline_ms":30}`, instanceJSON(5))
	resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Code != v1.CodeDeadlineQueued {
		t.Errorf("code %q, want %q", e.Code, v1.CodeDeadlineQueued)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 without a Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", ra)
	}

	close(release)
	<-done
	// Capacity restored: the same request now succeeds.
	resp, data = postJSON(t, ts.URL+"/v1/solve", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release status %d: %s", resp.StatusCode, data)
	}
}

// TestConcurrentLoad hammers a small pool with more clients than capacity,
// mixing /v1/churn streams into the solves: every response is either a
// clean 200 or a well-formed 429, every admitted churn stream ends in a
// summary line with no in-band error, the counters balance, and (under
// -race) the admission path is data-race-free.
func TestConcurrentLoad(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{Workers: 2, QueueDepth: 2})
	solveBody := fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":2}`, instanceJSON(30))
	churnBody := fmt.Sprintf(`{"instance":%s,"radius":1.5,"k":2,"periods":3,"arrival_rate":4,"depart_rate":2,"warm_start":true,"seed":7}`,
		instanceJSON(30))

	const clients, perClient = 16, 4
	var ok200, ok429, churns, other int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				// One request in four is a churn stream.
				route, body := "/v1/solve", solveBody
				churn := (i+j)%4 == 0
				if churn {
					route, body = "/v1/churn", churnBody
				}
				resp, data := postJSON(t, ts.URL+route, body, nil)
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200++
					if churn {
						churns++
						if _, _, err := churnStream(data); err != nil {
							t.Errorf("churn stream under load: %v", err)
						}
					}
				case http.StatusTooManyRequests:
					ok429++
				default:
					other++
					t.Errorf("unexpected status %d on %s: %s", resp.StatusCode, route, data)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("%d responses were neither 200 nor 429", other)
	}
	if ok200 == 0 || churns == 0 {
		t.Fatalf("%d requests (%d churn streams) succeeded under load, want both > 0", ok200, churns)
	}
	t.Logf("load: %d ok (%d churn streams), %d backpressured", ok200, churns, ok429)
	snap := srv.Metrics().Snapshot()
	total := snap.Counters[obs.CtrSrvAccepted] + snap.Counters[obs.CtrSrvQueueFull]
	if total != clients*perClient {
		t.Errorf("accepted %d + rejected %d != %d requests",
			snap.Counters[obs.CtrSrvAccepted], snap.Counters[obs.CtrSrvQueueFull], clients*perClient)
	}
	if g := snap.Gauges[obs.GaugeSrvInFlight]; g != 0 {
		t.Errorf("in-flight gauge %v after the storm, want 0", g)
	}
}
