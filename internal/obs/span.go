package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one node of a causal trace tree: a named operation with a start
// and an end on the monotonic clock, an optional parent, and float64
// attributes. Spans are recorded through the ordinary event machinery — a
// span_start event when the span opens and a span_end event (carrying
// "wall_ns" plus the attributes) when it closes — so any Sink that captures
// events captures span trees too, and a JSONL stream can be reassembled
// into per-request trees offline by linking Span/Parent IDs under a shared
// Trace ID.
//
// A timed stage is a span opened by StartStage: its End also records the
// span's wall time under the stage's timer (its name plus "_ns"), so one
// name serves the event stream and /metrics alike.
//
// The zero-cost rule extends to spans: StartSpan and StartStage with an
// inactive collector return nil, every method is nil-safe, and
// ContextWithSpan(ctx, nil) returns ctx unchanged — instrumented code never
// branches on span presence.
//
// A Span's SetAttr, SetAlg and End are safe for concurrent use, matching the
// Collector contract. End is idempotent; attributes set after End are
// dropped.
type Span struct {
	c      Collector
	trace  string
	name   string
	id     string
	parent string
	stage  bool // End records name+"_ns" on c
	start  time.Time

	mu    sync.Mutex
	alg   string
	attrs map[string]float64
	ended bool
}

// spanSeq mints process-unique span IDs; uniqueness within one trace is all
// reconstruction needs, process-wide uniqueness is simply cheap.
var spanSeq atomic.Uint64

func nextSpanID() string {
	return "s" + strconv.FormatUint(spanSeq.Add(1), 16)
}

// StartSpan opens a root span under the given trace ID (the serving layer
// uses the request ID). With an inactive collector it returns nil, and the
// whole span tree below it costs nothing.
func StartSpan(c Collector, trace, name string) *Span {
	if !Active(c) {
		return nil
	}
	s := &Span{c: c, trace: trace, name: name, id: nextSpanID(), start: time.Now()}
	s.emitStart()
	return s
}

// StartStage opens one timed stage: name as a child of ctx's span, or as a
// root span on c when ctx carries none. The stage's span events go to c, and
// its End also records the wall time on c under name+"_ns". With an
// inactive c it returns nil, whatever ctx carries.
func StartStage(ctx context.Context, c Collector, name string) *Span {
	if !Active(c) {
		return nil
	}
	p := SpanFromContext(ctx)
	s := &Span{c: c, trace: p.TraceID(), name: name, id: nextSpanID(),
		parent: p.ID(), stage: true}
	s.emitStart()
	s.start = time.Now() // a round's wall time leaves out its span_start
	return s
}

func (s *Span) emitStart() {
	s.c.Emit(Event{Type: EvSpanStart, Trace: s.trace, Span: s.id,
		Parent: s.parent, Name: s.name})
}

// SetAttr attaches (or overwrites) one float64 attribute, carried on the
// span_end event. Nil-safe; dropped after End.
func (s *Span) SetAttr(key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.attrs == nil {
			s.attrs = make(map[string]float64, 4)
		}
		s.attrs[key] = v
	}
	s.mu.Unlock()
}

// SetAlg names the algorithm the span ran, carried as the span_end's Alg.
// Nil-safe; dropped after End.
func (s *Span) SetAlg(alg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.alg = alg
	}
	s.mu.Unlock()
}

// End closes the span, emitting the span_end event with "wall_ns" and the
// accumulated attributes, records a stage's timer, and returns the elapsed
// nanoseconds. Only the first End emits; later calls return 0. Nil-safe.
func (s *Span) End() int64 {
	if s == nil {
		return 0
	}
	ns := time.Since(s.start).Nanoseconds()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return 0
	}
	s.ended = true
	// No SetAttr writes after ended, so the event takes the map itself.
	fields, alg := s.attrs, s.alg
	s.mu.Unlock()
	if fields == nil {
		fields = make(map[string]float64, 1)
	}
	fields["wall_ns"] = float64(ns)
	if s.stage {
		s.c.TimeNS(s.name+"_ns", ns)
	}
	s.c.Emit(Event{Type: EvSpanEnd, Alg: alg, Trace: s.trace, Span: s.id,
		Parent: s.parent, Name: s.name, Fields: fields})
	return ns
}

// ID returns the span's ID ("" on nil).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// TraceID returns the trace (request) ID the span belongs to ("" on nil) —
// the hook lower layers use to stamp their own events with the request ID
// without a second plumbing path.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// spanKey keys the ambient span in a context.
type spanKey struct{}

// ContextWithSpan returns ctx carrying s as the ambient parent span. A nil
// span returns ctx unchanged, so uninstrumented paths never pay for a
// context wrap.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the ambient span, or nil when none (or ctx is
// nil). StartStage reads it to parent a stage.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
