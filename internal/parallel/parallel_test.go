package parallel

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 1000
		counts := make([]int64, n)
		For(nil, n, workers, nil, func(i int) { atomic.AddInt64(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEmptyAndSmall(t *testing.T) {
	For(nil, 0, 4, nil, func(int) { t.Fatal("fn called for n=0") })
	For(nil, -3, 4, nil, func(int) { t.Fatal("fn called for n<0") })
	hit := false
	For(nil, 1, 8, nil, func(i int) { hit = true })
	if !hit {
		t.Fatal("n=1 not visited")
	}
}

func TestForParallelism(t *testing.T) {
	// With many workers, at least two calls must be in flight at once. Each
	// call waits until it sees a second one (or the deadline passes), so
	// the check does not depend on how soon the scheduler starts the other
	// workers; a For that ran the calls one by one would wait out the
	// deadline and fail.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	overlap := make(chan struct{})
	var once sync.Once
	var cur, peak int64
	For(nil, 200, 8, nil, func(i int) {
		c := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if c <= p || atomic.CompareAndSwapInt64(&peak, p, c) {
				break
			}
		}
		if c >= 2 {
			once.Do(func() { close(overlap) })
		}
		select {
		case <-overlap:
		case <-ctx.Done():
		}
		atomic.AddInt64(&cur, -1)
	})
	if p := atomic.LoadInt64(&peak); p < 2 {
		t.Fatalf("peak concurrent calls = %d, want >= 2", p)
	}
}

func TestArgmaxDeterministicTieBreak(t *testing.T) {
	scores := []float64{1, 5, 5, 3, 5}
	for _, workers := range []int{1, 4, 16} {
		idx, best, _ := Argmax(nil, len(scores), workers, nil, func(i int) float64 { return scores[i] })
		if idx != 1 || best != 5 {
			t.Fatalf("workers=%d: argmax = (%d, %v), want (1, 5)", workers, idx, best)
		}
	}
}

func TestArgmaxEmpty(t *testing.T) {
	idx, _, _ := Argmax(nil, 0, 4, nil, func(int) float64 { return 0 })
	if idx != -1 {
		t.Fatalf("empty argmax = %d, want -1", idx)
	}
}

func TestArgmaxSkipsNaN(t *testing.T) {
	nan := math.NaN()
	// Regression: a NaN at index 0 used to win every comparison because it
	// was the initial "best" and nothing compares greater than NaN.
	scores := []float64{nan, 2, 7, nan, 7}
	for _, workers := range []int{1, 4} {
		idx, best, _ := Argmax(nil, len(scores), workers, nil, func(i int) float64 { return scores[i] })
		if idx != 2 || best != 7 {
			t.Fatalf("workers=%d: argmax = (%d, %v), want (2, 7)", workers, idx, best)
		}
	}
	// All-NaN input selects nothing.
	idx, best, _ := Argmax(nil, 3, 2, nil, func(int) float64 { return nan })
	if idx != -1 || !math.IsNaN(best) {
		t.Fatalf("all-NaN argmax = (%d, %v), want (-1, NaN)", idx, best)
	}
}

func TestForObsTelemetry(t *testing.T) {
	m := obs.NewMetrics()
	var sum int64
	For(nil, 100, 4, m, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 4950 {
		t.Fatalf("sum = %d", sum)
	}
	s := m.Snapshot()
	if s.Counters[obs.CtrParTasks] != 100 {
		t.Errorf("tasks = %d, want 100", s.Counters[obs.CtrParTasks])
	}
	if s.Counters[obs.CtrParChunks] < 1 {
		t.Errorf("chunks = %d, want >= 1", s.Counters[obs.CtrParChunks])
	}
	if s.Gauges[obs.GaugeParWorkers] != 4 {
		t.Errorf("workers gauge = %v, want 4", s.Gauges[obs.GaugeParWorkers])
	}
	busy := s.TimersNS[obs.TimWorkerBusy]
	if busy.Count != 4 {
		t.Errorf("worker busy samples = %d, want 4", busy.Count)
	}
	// Serial path records a single chunk and one busy span.
	m2 := obs.NewMetrics()
	For(nil, 10, 1, m2, func(int) {})
	s2 := m2.Snapshot()
	if s2.Counters[obs.CtrParChunks] != 1 || s2.TimersNS[obs.TimWorkerBusy].Count != 1 {
		t.Errorf("serial telemetry wrong: %+v", s2.Counters)
	}
}

func TestArgmaxObsCountsScan(t *testing.T) {
	m := obs.NewMetrics()
	idx, best, _ := Argmax(nil, 50, 2, m, func(i int) float64 { return float64(i % 10) })
	if idx != 9 || best != 9 {
		t.Fatalf("argmax = (%d, %v), want (9, 9)", idx, best)
	}
	if got := m.Snapshot().Counters[obs.CtrParTasks]; got != 50 {
		t.Errorf("tasks = %d, want 50", got)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers = %d", DefaultWorkers())
	}
}
