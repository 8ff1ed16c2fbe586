package parallel

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
)

// TestDegenerateArgs: every primitive must treat n <= 0 as a no-op and
// workers <= 0 as "pick a sane default" — no goroutine leaks, no panics, no
// spurious visits.
func TestDegenerateArgs(t *testing.T) {
	cases := []struct {
		name       string
		n, workers int
		wantVisits int64
	}{
		{"zero n", 0, 4, 0},
		{"negative n", -3, 4, 0},
		{"zero workers", 5, 0, 5},
		{"negative workers", 5, -2, 5},
		{"both degenerate", -1, -1, 0},
		{"workers exceed n", 3, 64, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var visits int64
			For(nil, tc.n, tc.workers, nil, func(i int) { atomic.AddInt64(&visits, 1) })
			if visits != tc.wantVisits {
				t.Errorf("For visited %d indices, want %d", visits, tc.wantVisits)
			}

			visits = 0
			if err := For(context.Background(), tc.n, tc.workers, nil, func(i int) { atomic.AddInt64(&visits, 1) }); err != nil {
				t.Errorf("For with a live context = %v", err)
			}
			if visits != tc.wantVisits {
				t.Errorf("For with a live context visited %d indices, want %d", visits, tc.wantVisits)
			}

			idx, val, _ := Argmax(nil, tc.n, tc.workers, nil, func(i int) float64 { return float64(i) })
			if tc.n <= 0 {
				if idx != -1 || !math.IsNaN(val) {
					t.Errorf("Argmax on empty input = (%d, %v), want (-1, NaN)", idx, val)
				}
			} else if idx != tc.n-1 || val != float64(tc.n-1) {
				t.Errorf("Argmax = (%d, %v), want (%d, %v)", idx, val, tc.n-1, float64(tc.n-1))
			}
		})
	}
}

func TestClampWorkers(t *testing.T) {
	cases := []struct {
		n, workers, want int
	}{
		{10, 4, 4},
		{10, 0, DefaultWorkers()},
		{10, -7, DefaultWorkers()},
		{2, 16, 2},
		{1, 1, 1},
	}
	for _, tc := range cases {
		if got := clampWorkers(tc.n, tc.workers); got != tc.want {
			t.Errorf("clampWorkers(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
		if got := clampWorkers(tc.n, tc.workers); got < 1 {
			t.Errorf("clampWorkers(%d, %d) = %d < 1", tc.n, tc.workers, got)
		}
	}
}

// TestForCtxCancelMidFlight is the same contract for the index-granular
// primitive, plus Argmax's partial-reduction guarantee: unvisited indices
// are NaN-filled and never win the reduction.
func TestForCtxCancelMidFlight(t *testing.T) {
	const n = 100_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var covered int64
	err := For(ctx, n, 8, nil, func(i int) {
		if atomic.AddInt64(&covered, 1) >= n/10 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("For err = %v, want context.Canceled", err)
	}
	if covered == 0 || covered >= n {
		t.Fatalf("covered %d of %d; want a strict partial sweep", covered, n)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var scored int64
	idx, val, err := Argmax(ctx2, n, 8, nil, func(i int) float64 {
		if atomic.AddInt64(&scored, 1) >= n/10 {
			cancel2()
		}
		return float64(i % 997)
	})
	if err != context.Canceled {
		t.Fatalf("Argmax err = %v, want context.Canceled", err)
	}
	if idx < 0 || math.IsNaN(val) {
		t.Fatalf("Argmax = (%d, %v); a partial scan that scored indices must still reduce", idx, val)
	}
}

// TestArgmaxPreCancelled: a dead context means nothing is scored and the
// reduction reports (-1, NaN, ctx.Err()).
func TestArgmaxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	idx, val, err := Argmax(ctx, 50, 4, nil, func(i int) float64 {
		t.Error("score called after cancellation")
		return 0
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if idx != -1 || !math.IsNaN(val) {
		t.Fatalf("got (%d, %v), want (-1, NaN)", idx, val)
	}
}
