package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	v1 "repro/api/v1"
	"repro/internal/serve"
)

// TestDrainFinishesInFlight: a drain with enough grace lets a running solve
// finish on its own and its client gets the complete (non-partial) result,
// while new requests are refused 503 the moment drain begins.
func TestDrainFinishesInFlight(t *testing.T) {
	started, release := resetBlock()
	srv, ts := newTestServer(t, serve.Config{})
	body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":2,"solver":"test-block"}`, instanceJSON(5))

	type reply struct {
		status int
		out    v1.SolveResponse
	}
	inflight := make(chan reply, 1)
	go func() {
		resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil)
		var out v1.SolveResponse
		_ = json.Unmarshal(data, &out)
		inflight <- reply{resp.StatusCode, out}
	}()
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx, 5*time.Second)
	}()
	waitHealthz(t, ts.URL, func(h v1.Health) bool { return h.Status == "draining" })

	// New work is refused immediately...
	resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503 (%s)", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Code != v1.CodeDraining {
		t.Errorf("code %q, want %q", e.Code, v1.CodeDraining)
	}

	// ...while the in-flight solve finishes inside the grace period.
	close(release)
	r := <-inflight
	if r.status != http.StatusOK || r.out.Partial || len(r.out.Centers) != 2 {
		t.Errorf("in-flight solve under drain: status %d, partial %v, %d centers",
			r.status, r.out.Partial, len(r.out.Centers))
	}
	if err := <-drained; err != nil {
		t.Errorf("drain returned %v", err)
	}
	if !srv.Draining() {
		t.Error("server not marked draining after Drain")
	}
}

// TestDrainGraceCancels: when the grace period expires first, the in-flight
// solve is cancelled and its client still gets a valid anytime partial
// result — drain never drops a response on the floor.
func TestDrainGraceCancels(t *testing.T) {
	started, _ := resetBlock()
	srv, ts := newTestServer(t, serve.Config{})
	body := fmt.Sprintf(`{"instance":%s,"radius":1,"k":2,"solver":"test-block"}`, instanceJSON(5))

	inflight := make(chan v1.SolveResponse, 1)
	statusCh := make(chan int, 1)
	go func() {
		resp, data := postJSON(t, ts.URL+"/v1/solve", body, nil)
		var out v1.SolveResponse
		_ = json.Unmarshal(data, &out)
		statusCh <- resp.StatusCode
		inflight <- out
	}()
	<-started

	// Never release the solver: only the 20ms grace cancellation ends it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Drain(ctx, 20*time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("drain took %v despite a 20ms grace", waited)
	}
	if status := <-statusCh; status != http.StatusOK {
		t.Fatalf("cancelled in-flight solve answered %d, want 200 + partial", status)
	}
	out := <-inflight
	if !out.Partial {
		t.Error("grace-cancelled solve not marked partial")
	}
	if len(out.Centers) != len(out.Gains) {
		t.Errorf("partial result inconsistent: %d centers, %d gains",
			len(out.Centers), len(out.Gains))
	}
}

// TestDrainIdempotentOnIdle: draining an idle server returns promptly.
func TestDrainIdle(t *testing.T) {
	srv, _ := newTestServer(t, serve.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx, time.Second); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
}
