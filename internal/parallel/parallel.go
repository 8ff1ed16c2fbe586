// Package parallel provides the small work-distribution primitives the
// library uses to spread candidate scans, trials, and exhaustive enumeration
// across cores. Results are always written to pre-indexed slots so that
// parallel execution is deterministic: the reduction order never depends on
// goroutine scheduling.
//
// Both primitives take an optional context and an optional collector (either
// may be nil). Cancellation is cooperative at index granularity: workers
// poll the context before every index, so once it is done only the indices
// already running finish, and the primitive returns ctx.Err(). Indices never
// started are simply not visited — callers that aggregate results must
// treat their slots as absent (Argmax does so by pre-filling scores with
// NaN).
package parallel

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DefaultWorkers reports the worker count used when a caller passes
// workers <= 0: the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers normalizes a caller-supplied worker count: non-positive
// selects DefaultWorkers, and the count never exceeds the number of work
// items (never spawn zero-work goroutines).
func clampWorkers(n, workers int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers < 1 {
		workers = 1 // defensive: GOMAXPROCS is >= 1, but never return 0
	}
	if workers > n {
		workers = n
	}
	return workers
}

// doneChan extracts the cancellation channel of a context; a nil context
// (or context.Background()) yields nil, on which a non-blocking receive is
// never ready — the uncancellable fast path.
func doneChan(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// ctxErr reports the context's error, tolerating nil.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// For runs fn(i) for every i in [0, n) using the given number of workers
// (workers <= 0 selects DefaultWorkers; n <= 0 is a no-op). Indices are
// handed out dynamically in chunks so that uneven per-index cost still
// balances. fn must be safe to call concurrently; it must only write to
// state owned by index i.
//
// Once ctx is done no new index starts and For returns ctx.Err(); indices
// never started are not visited. The poll, a non-blocking receive, costs
// tens of nanoseconds against an index's microseconds. A live collector c
// records the tasks dispatched (obs.CtrParTasks), the number of dynamically
// scheduled chunks (obs.CtrParChunks), the worker count
// (obs.GaugeParWorkers), and each worker's busy time (obs.TimWorkerBusy).
func For(ctx context.Context, n, workers int, c obs.Collector, fn func(i int)) error {
	if n <= 0 {
		return ctxErr(ctx)
	}
	done := doneChan(ctx)
	workers = clampWorkers(n, workers)
	active := obs.Active(c)
	if active {
		c.Count(obs.CtrParTasks, int64(n))
		c.Gauge(obs.GaugeParWorkers, float64(workers))
	}
	if workers == 1 {
		var t0 time.Time
		if active {
			t0 = time.Now()
		}
		var chunks int64
		for i := 0; i < n; i++ {
			if cancelled(done) {
				break
			}
			fn(i)
			chunks = 1
		}
		if active {
			c.TimeNS(obs.TimWorkerBusy, time.Since(t0).Nanoseconds())
			c.Count(obs.CtrParChunks, chunks)
		}
		return ctxErr(ctx)
	}
	// Chunked dynamic scheduling: amortizes the atomic op over chunk items.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var next, chunks int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			if active {
				t0 := time.Now()
				defer func() { c.TimeNS(obs.TimWorkerBusy, time.Since(t0).Nanoseconds()) }()
			}
			for {
				start := int(atomic.AddInt64(&next, int64(chunk))) - chunk
				if start >= n {
					return
				}
				if active {
					atomic.AddInt64(&chunks, 1)
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					if cancelled(done) {
						return
					}
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
	if active {
		c.Count(obs.CtrParChunks, atomic.LoadInt64(&chunks))
	}
	return ctxErr(ctx)
}

// cancelled is a non-blocking poll of a done channel (nil: never cancelled).
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Argmax evaluates score(i) for every i in [0, n) in parallel, with For's
// scheduling, cancellation and telemetry, and returns the index of the
// strictly greatest score with ties broken toward the lowest index — the
// paper's tie-break rule ("selection will be based on the index of the
// points") — regardless of scheduling. NaN scores are never selected: they
// compare as worse than any real score no matter where they appear. It
// returns (-1, NaN) when n <= 0 or every score is NaN.
//
// On cancellation the reduction runs over the scores actually computed
// (unvisited indices count as NaN) and the error is ctx.Err(); the returned
// index is therefore the best of a partial scan, or -1 when nothing was
// scored.
func Argmax(ctx context.Context, n, workers int, c obs.Collector, score func(i int) float64) (int, float64, error) {
	if n <= 0 {
		return -1, math.NaN(), ctxErr(ctx)
	}
	scores := make([]float64, n)
	if doneChan(ctx) != nil {
		// Pre-fill with NaN so indices skipped by cancellation are never
		// selected; the uncancellable path visits every index and skips this.
		for i := range scores {
			scores[i] = math.NaN()
		}
	}
	err := For(ctx, n, workers, c, func(i int) { scores[i] = score(i) })
	best := -1
	for i, s := range scores {
		if math.IsNaN(s) {
			continue
		}
		if best < 0 || s > scores[best] {
			best = i
		}
	}
	if best < 0 {
		return -1, math.NaN(), err
	}
	return best, scores[best], err
}
