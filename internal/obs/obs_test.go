package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// timRound is the round stage's timer.
const timRound = StageRound + "_ns"

func TestNopAndActive(t *testing.T) {
	if Active(nil) {
		t.Error("nil collector active")
	}
	if Active(Nop{}) {
		t.Error("Nop active")
	}
	if !Active(NewMetrics()) {
		t.Error("Metrics not active")
	}
	if _, ok := OrNop(nil).(Nop); !ok {
		t.Error("OrNop(nil) not Nop")
	}
	m := NewMetrics()
	if OrNop(m) != Collector(m) {
		t.Error("OrNop(live) did not pass through")
	}
	// A stage on an inactive collector is nil, and ending it is a no-op.
	for _, c := range []Collector{nil, Nop{}} {
		st := StartStage(context.Background(), c, StageRound)
		if st != nil {
			t.Errorf("StartStage(%T) = %v, want nil", c, st)
		}
		if ns := st.End(); ns != 0 {
			t.Errorf("inactive stage measured %d ns", ns)
		}
	}
}

func TestMetricsCountersGaugesTimers(t *testing.T) {
	m := NewMetrics()
	m.Count(CtrRounds, 2)
	m.Count(CtrRounds, 3)
	m.Count(CtrGainEvals, 7)
	m.Gauge(GaugeParWorkers, 8)
	m.Observe(ObsSEBDepth, 3)
	m.Observe(ObsSEBDepth, 5)
	m.TimeNS(timRound, 1500)

	s := m.Snapshot()
	if s.Counters[CtrRounds] != 5 || s.Counters[CtrGainEvals] != 7 {
		t.Errorf("counters wrong: %+v", s.Counters)
	}
	if s.Gauges[GaugeParWorkers] != 8 {
		t.Errorf("gauge wrong: %+v", s.Gauges)
	}
	h := s.Histograms[ObsSEBDepth]
	if h.Count != 2 || h.Min != 3 || h.Max != 5 || h.Mean != 4 {
		t.Errorf("histogram wrong: %+v", h)
	}
	tm := s.TimersNS[timRound]
	if tm.Count != 1 || tm.Sum != 1500 {
		t.Errorf("timer wrong: %+v", tm)
	}
	if s.DurationNS <= 0 {
		t.Error("snapshot duration not positive")
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.Count(CtrCandidates, 1)
				m.Observe(ObsSEBPoints, float64(i))
				m.TimeNS(TimWorkerBusy, int64(i))
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Counters[CtrCandidates] != workers*each {
		t.Errorf("counter = %d, want %d", s.Counters[CtrCandidates], workers*each)
	}
	if s.Histograms[ObsSEBPoints].Count != workers*each {
		t.Errorf("histogram count = %d", s.Histograms[ObsSEBPoints].Count)
	}
}

func TestHistogramQuantilesAndInvalid(t *testing.T) {
	var h Histogram
	for v := 1; v <= 1000; v++ {
		h.Add(float64(v))
	}
	h.Add(-1)
	h.Add(float64(uint64(1) << 60)) // overflow bucket
	s := h.Snapshot()
	if s.Invalid != 1 {
		t.Errorf("invalid = %d, want 1", s.Invalid)
	}
	if s.Count != 1001 {
		t.Errorf("count = %d", s.Count)
	}
	// Bucket quantiles are upper bounds within a factor of two.
	if s.P50 < 500 || s.P50 > 1024 {
		t.Errorf("p50 = %v out of [500, 1024]", s.P50)
	}
	if s.P99 < 990 || s.P99 > float64(uint64(1)<<60) {
		t.Errorf("p99 = %v", s.P99)
	}
	if s.Max != float64(uint64(1)<<60) || s.Min != 1 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
}

// capture returns a Sink over a buffer and a function that flushes it and
// decodes every event it streamed.
func capture(t *testing.T) (*Sink, func() []Event) {
	t.Helper()
	var buf bytes.Buffer
	s := NewSink(&buf)
	return s, func() []Event {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		var out []Event
		for dec := json.NewDecoder(&buf); dec.More(); {
			var e Event
			if err := dec.Decode(&e); err != nil {
				t.Fatalf("sink line not an Event: %v", err)
			}
			out = append(out, e)
		}
		return out
	}
}

func TestMultiFansOutAndCollapses(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	sa, eventsA := capture(t)
	sb, eventsB := capture(t)
	c := Multi(nil, Nop{}, a, b, sa, sb)
	c.Count(CtrRounds, 1)
	c.Emit(Event{Type: EvSEB, Fields: map[string]float64{"points": 3}})
	StartStage(context.Background(), c, StageRound).End()
	for _, m := range []*Metrics{a, b} {
		if s := m.Snapshot(); s.Counters[CtrRounds] != 1 || s.TimersNS[timRound].Count != 1 {
			t.Errorf("member missed the count or the stage's timer: %+v", s)
		}
	}
	for _, events := range []func() []Event{eventsA, eventsB} {
		got := events()
		if len(got) != 3 || got[0].Type != EvSEB || got[1].Type != EvSpanStart || got[2].Type != EvSpanEnd {
			t.Errorf("member missed an event: %+v", got)
		}
	}
	if _, ok := Multi(nil, Nop{}).(Nop); !ok {
		t.Error("Multi of dead collectors not Nop")
	}
	if Multi(a) != Collector(a) {
		t.Error("Multi of one live collector not unwrapped")
	}
}

// knownEventTypes is the schema's closed set of event types.
var knownEventTypes = map[string]bool{
	EvSpanStart: true, EvSpanEnd: true,
	EvSEB: true, EvSwapPass: true, EvCancelled: true, EvWarmStart: true,
}

// TestSinkJSONLSchema validates the JSONL event schema: one JSON object per
// line, required t_ns (monotonically non-decreasing) and type (from the
// known set), round ≥ 1 when present, and no unknown keys. A round is a
// stage: a span_start and a span_end carrying its Alg and fields.
func TestSinkJSONLSchema(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	round := StartStage(context.Background(), s, StageRound)
	round.SetAlg("greedy2")
	round.SetAttr("round", 1)
	round.SetAttr("candidates", 40)
	s.Emit(Event{Type: EvSEB, Fields: map[string]float64{"points": 7, "depth": 3}})
	round.SetAttr("gain", 12.5)
	round.End()
	s.Emit(Event{Type: EvCancelled, Alg: "greedy2", Round: 1, Fields: map[string]float64{"rounds": 1}})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	allowedKeys := map[string]bool{"t_ns": true, "type": true, "alg": true, "round": true, "fields": true,
		"trace": true, "span": true, "parent": true, "name": true}
	var lastTNS int64 = -1
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines++
		line := sc.Bytes()
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(line, &raw); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", lines, err, line)
		}
		for k := range raw {
			if !allowedKeys[k] {
				t.Errorf("line %d: unknown key %q", lines, k)
			}
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %d not an Event: %v", lines, err)
		}
		if !knownEventTypes[e.Type] {
			t.Errorf("line %d: unknown event type %q", lines, e.Type)
		}
		if e.TNS < lastTNS {
			t.Errorf("line %d: t_ns %d went backwards (prev %d)", lines, e.TNS, lastTNS)
		}
		if e.TNS < 0 {
			t.Errorf("line %d: negative t_ns %d", lines, e.TNS)
		}
		if raw["round"] != nil && e.Round < 1 {
			t.Errorf("line %d: round %d < 1", lines, e.Round)
		}
		if e.Type == EvSpanEnd && (e.Name != StageRound || e.Alg != "greedy2" || e.Fields["round"] != 1 ||
			e.Fields["gain"] != 12.5 || e.Fields["candidates"] != 40 || e.Fields["wall_ns"] < 0) {
			t.Errorf("line %d: round stage's span_end = %+v", lines, e)
		}
		lastTNS = e.TNS
	}
	if lines != 4 {
		t.Fatalf("wrote %d lines, want 4", lines)
	}
}

// TestConcurrentEmitMonotonic emits from several goroutines at once: the
// stamp must be taken in the same critical section as the write, or a
// preempted emitter lands an older t_ns after a newer one.
func TestConcurrentEmitMonotonic(t *testing.T) {
	const workers, each = 8, 500
	emitAll := func(c Collector) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					c.Emit(Event{Type: EvSwapPass, Fields: map[string]float64{"pass": float64(i + 1)}})
				}
			}()
		}
		wg.Wait()
	}
	s, read := capture(t)
	emitAll(s)
	events := read()
	if len(events) != workers*each {
		t.Fatalf("%d events, want %d", len(events), workers*each)
	}
	for i := 1; i < len(events); i++ {
		if events[i].TNS < events[i-1].TNS {
			t.Fatalf("event %d t_ns %d went backwards (prev %d)", i, events[i].TNS, events[i-1].TNS)
		}
	}
}

func TestSinkIgnoresAggregates(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	s.Count(CtrRounds, 1)
	s.Gauge(GaugeParWorkers, 4)
	s.Observe(ObsSEBDepth, 1)
	s.TimeNS(timRound, 10)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("aggregate signals leaked into the event stream: %q", buf.String())
	}
}

// TestMetricsIgnoresEvents is the converse: Metrics aggregates only, so
// emitted events leave its snapshot and its Prometheus text unchanged.
func TestMetricsIgnoresEvents(t *testing.T) {
	m := NewMetrics()
	m.Count(CtrRounds, 1)
	m.TimeNS(timRound, 10)
	render := func() (string, string) {
		var js, prom bytes.Buffer
		if err := m.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		return stripVolatile(js.String()), stripVolatile(prom.String())
	}
	js, prom := render()
	m.Emit(Event{Type: EvSpanEnd, Alg: "greedy2", Name: StageRound, Fields: map[string]float64{"gain": 3}})
	m.Emit(Event{Type: EvSEB, Fields: map[string]float64{"points": 7}})
	js2, prom2 := render()
	if js2 != js {
		t.Errorf("events changed the JSON snapshot:\n%s\n---\n%s", js, js2)
	}
	if prom2 != prom {
		t.Errorf("events changed the Prometheus text:\n%s\n---\n%s", prom, prom2)
	}
}

// stripVolatile drops the lines that carry the collector's age, which moves
// between two renders of the same state.
func stripVolatile(text string) string {
	var keep []string
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, "duration_ns") && !strings.Contains(line, "cd_uptime_seconds") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

func TestWriteJSONRoundTrips(t *testing.T) {
	m := NewMetrics()
	m.Count(CtrRounds, 4)
	m.TimeNS(timRound, 2500)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot JSON invalid: %v\n%s", err, buf.String())
	}
	if s.Counters[CtrRounds] != 4 || s.TimersNS[timRound].Sum != 2500 {
		t.Errorf("round-trip lost data: %+v", s)
	}
	if !strings.Contains(buf.String(), `"timers_ns"`) {
		t.Error("timers missing from JSON")
	}
	if len(s.Counters) != 1 {
		t.Errorf("snapshot counters = %v, want only %s", s.Counters, CtrRounds)
	}
}
