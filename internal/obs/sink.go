package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Sink is a Collector that streams every event as one JSON object per line
// (JSONL) and ignores the aggregate signals (counters, gauges, histograms,
// timers) — pair it with a Metrics collector via Multi when both views are
// wanted. Writes are buffered; call Flush (or Close) before reading the
// output.
type Sink struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	enc   *json.Encoder
	start time.Time
	err   error
}

// NewSink returns a sink writing JSONL to w. Timestamps are nanoseconds on
// the monotonic clock since this call.
func NewSink(w io.Writer) *Sink {
	bw := bufio.NewWriter(w)
	return &Sink{bw: bw, enc: json.NewEncoder(bw), start: time.Now()}
}

// Count implements Collector (ignored).
func (*Sink) Count(string, int64) {}

// Gauge implements Collector (ignored).
func (*Sink) Gauge(string, float64) {}

// Observe implements Collector (ignored).
func (*Sink) Observe(string, float64) {}

// TimeNS implements Collector (ignored).
func (*Sink) TimeNS(string, int64) {}

// Emit implements Collector: one JSONL line per event, stamped against the
// sink's monotonic base when TNS is zero. The stamp is taken under the lock,
// so concurrent emitters write lines in timestamp order. The first write
// error is latched and subsequent events are dropped.
func (s *Sink) Emit(e Event) {
	s.mu.Lock()
	if e.TNS == 0 {
		e.TNS = time.Since(s.start).Nanoseconds()
	}
	if s.err == nil {
		s.err = s.enc.Encode(e)
	}
	s.mu.Unlock()
}

// Flush forces buffered lines to the underlying writer and reports the
// first error seen by any write.
func (s *Sink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Err reports the first write error (nil when all writes succeeded).
func (s *Sink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
