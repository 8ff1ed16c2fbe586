package load

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRunKeepsArrivalSchedule checks the generator is open-loop: against a
// server that stalls every request, with room for only two in flight, each
// arrival the schedule places within Duration is still either sent or
// dropped. A generator that timed each gap from the end of the previous
// iteration would fall behind and offer fewer.
func TestRunKeepsArrivalSchedule(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	cfg := Config{
		BaseURL:     ts.URL,
		Rate:        2000,
		Duration:    150 * time.Millisecond,
		N:           10,
		Seed:        3,
		MaxInFlight: 2,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := 0
	for sched := newArrivals(cfg); sched.next() <= cfg.Duration; {
		want++
	}
	dropped := rep.classTotal(ClassDropped)
	if got := int(rep.Sent) + dropped; got != want {
		t.Fatalf("arrivals = %d sent + %d dropped = %d, want the %d scheduled within %v",
			rep.Sent, dropped, got, want, cfg.Duration)
	}
	if dropped == 0 {
		t.Errorf("no arrivals dropped with %d in flight against a stalled server", cfg.MaxInFlight)
	}
}
