package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxEvents bounds the event buffer a Metrics collector retains for
// its snapshot. Later events past the cap are dropped (and counted) rather
// than growing memory without bound; use Sink for a complete trace.
const DefaultMaxEvents = 8192

// Metrics is a live Collector that aggregates everything in memory and
// exports a Snapshot. All methods are safe for concurrent use: counters are
// atomics behind a read-locked map, gauges/histograms/events take a mutex.
type Metrics struct {
	start time.Time

	cmu      sync.RWMutex
	counters map[string]*int64

	mu        sync.Mutex
	gauges    map[string]float64
	hists     map[string]*Histogram
	timers    map[string]*Histogram
	events    []Event
	dropped   int64
	maxEvents int
}

// NewMetrics returns an empty Metrics collector with the default event cap.
func NewMetrics() *Metrics {
	return &Metrics{
		start:     time.Now(),
		counters:  make(map[string]*int64),
		gauges:    make(map[string]float64),
		hists:     make(map[string]*Histogram),
		timers:    make(map[string]*Histogram),
		maxEvents: DefaultMaxEvents,
	}
}

// SetMaxEvents adjusts the event-buffer cap (0 disables event retention
// entirely; counters and histograms still aggregate).
func (m *Metrics) SetMaxEvents(n int) {
	m.mu.Lock()
	m.maxEvents = n
	m.mu.Unlock()
}

// counter returns the atomic cell for name, creating it on first use.
func (m *Metrics) counter(name string) *int64 {
	m.cmu.RLock()
	p := m.counters[name]
	m.cmu.RUnlock()
	if p != nil {
		return p
	}
	m.cmu.Lock()
	defer m.cmu.Unlock()
	if p = m.counters[name]; p == nil {
		p = new(int64)
		m.counters[name] = p
	}
	return p
}

// Count implements Collector.
func (m *Metrics) Count(name string, delta int64) {
	atomic.AddInt64(m.counter(name), delta)
}

// Gauge implements Collector.
func (m *Metrics) Gauge(name string, v float64) {
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// Observe implements Collector.
func (m *Metrics) Observe(name string, v float64) {
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &Histogram{}
		m.hists[name] = h
	}
	h.Add(v)
	m.mu.Unlock()
}

// TimeNS implements Collector.
func (m *Metrics) TimeNS(name string, ns int64) {
	m.mu.Lock()
	h := m.timers[name]
	if h == nil {
		h = &Histogram{}
		m.timers[name] = h
	}
	h.Add(float64(ns))
	m.mu.Unlock()
}

// detailEvent reports whether an event type is high-frequency detail (one
// per inner operation) rather than a lifecycle summary. Detail events are
// the first to go when the buffer fills: a snapshot must never lose a
// round_end to a flood of seb events. span_start is detail too — a
// span_end alone still reconstructs the tree (its TNS and wall_ns recover
// the start).
func detailEvent(typ string) bool { return typ == EvSEB || typ == EvSpanStart }

// Emit implements Collector: the event is stamped against this collector's
// monotonic base (when TNS is zero) and buffered up to the cap. The stamp is
// taken under the lock, so the buffer stays in timestamp order. When the
// buffer is full, an incoming detail event is dropped; an incoming summary
// event instead evicts the oldest buffered detail event, so lifecycle
// events (round_start/round_end, scans, experiments) survive any volume of
// per-operation detail. Either way the dropped counter advances.
func (m *Metrics) Emit(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.TNS == 0 {
		e.TNS = time.Since(m.start).Nanoseconds()
	}
	if len(m.events) < m.maxEvents {
		m.events = append(m.events, e)
		return
	}
	m.dropped++
	if detailEvent(e.Type) {
		return
	}
	for i := range m.events {
		if detailEvent(m.events[i].Type) {
			copy(m.events[i:], m.events[i+1:])
			m.events[len(m.events)-1] = e
			return
		}
	}
}

// Snapshot is the JSON-exportable state of a Metrics collector at one
// moment.
type Snapshot struct {
	DurationNS    int64                   `json:"duration_ns"`
	Counters      map[string]int64        `json:"counters"`
	Gauges        map[string]float64      `json:"gauges,omitempty"`
	TimersNS      map[string]HistSnapshot `json:"timers_ns,omitempty"`
	Histograms    map[string]HistSnapshot `json:"histograms,omitempty"`
	Events        []Event                 `json:"events,omitempty"`
	EventsDropped int64                   `json:"events_dropped,omitempty"`
}

// Snapshot exports the current aggregate state. The returned value shares
// nothing with the collector and is safe to serialize while collection
// continues.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		DurationNS: time.Since(m.start).Nanoseconds(),
		Counters:   make(map[string]int64),
	}
	m.cmu.RLock()
	for name, p := range m.counters {
		s.Counters[name] = atomic.LoadInt64(p)
	}
	m.cmu.RUnlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(m.gauges))
		for k, v := range m.gauges {
			s.Gauges[k] = v
		}
	}
	if len(m.timers) > 0 {
		s.TimersNS = make(map[string]HistSnapshot, len(m.timers))
		for k, h := range m.timers {
			s.TimersNS[k] = h.Snapshot()
		}
	}
	if len(m.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(m.hists))
		for k, h := range m.hists {
			s.Histograms[k] = h.Snapshot()
		}
	}
	s.Events = append([]Event(nil), m.events...)
	s.EventsDropped = m.dropped
	return s
}

// WriteJSON writes the snapshot as indented JSON. The output is
// deterministic for a given collector state: encoding/json emits map keys
// in sorted order and the struct fields in declaration order, so two
// renders of the same state are byte-identical and /metrics output is
// golden-testable and diff-stable (TestWriteJSONDeterministic pins this).
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Snapshot())
}

// CounterNames returns the sorted names of all counters touched so far
// (handy for tests and debug printing).
func (m *Metrics) CounterNames() []string {
	m.cmu.RLock()
	names := make([]string, 0, len(m.counters))
	for k := range m.counters {
		names = append(names, k)
	}
	m.cmu.RUnlock()
	sort.Strings(names)
	return names
}
