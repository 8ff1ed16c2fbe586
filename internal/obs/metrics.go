package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is a live Collector that aggregates counters, gauges, timers, and
// histograms in memory and exports a Snapshot. It keeps no events: Emit does
// nothing, just as Sink ignores aggregates; pair the two via Multi when both
// views are wanted. All methods are safe for concurrent use: counters are
// atomics behind a read-locked map, gauges/histograms/timers take a mutex.
type Metrics struct {
	start time.Time

	cmu      sync.RWMutex
	counters map[string]*int64

	mu     sync.Mutex
	gauges map[string]float64
	hists  map[string]*Histogram
	timers map[string]*Histogram
}

// NewMetrics returns an empty Metrics collector.
func NewMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		counters: make(map[string]*int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
		timers:   make(map[string]*Histogram),
	}
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

// Emit implements Collector (ignored): Metrics aggregates only. Stream
// events to a Sink.
func (*Metrics) Emit(Event) {}

// Snapshot is the JSON-exportable state of a Metrics collector at one
// moment.
type Snapshot struct {
	DurationNS int64                   `json:"duration_ns"`
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	TimersNS   map[string]HistSnapshot `json:"timers_ns,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
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
