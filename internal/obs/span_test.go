package obs

import (
	"context"
	"testing"
)

// TestSpanTreeReconstruction builds a three-level tree of stages under a
// root span and checks the emitted events reassemble into it: every
// span_end links to its parent, all under one trace ID.
func TestSpanTreeReconstruction(t *testing.T) {
	m, read := capture(t)
	root := StartSpan(m, "req-1", "request")
	if root == nil {
		t.Fatal("StartSpan returned nil on a live collector")
	}
	if root.TraceID() != "req-1" {
		t.Errorf("TraceID = %q, want req-1", root.TraceID())
	}
	solve := StartStage(ContextWithSpan(context.Background(), root), m, "solve")
	solve.SetAttr("k", 3)
	for i := 0; i < 3; i++ {
		r := StartStage(ContextWithSpan(context.Background(), solve), m, "round")
		r.SetAttr("round", float64(i+1))
		r.End()
	}
	solve.End()
	root.SetAttr("status", 200)
	root.End()

	parents := map[string]string{} // span id → parent id, from span_start
	names := map[string]string{}
	ends := map[string]Event{}
	for _, e := range read() {
		if e.Trace != "req-1" {
			t.Errorf("event %s has trace %q, want req-1", e.Type, e.Trace)
		}
		switch e.Type {
		case EvSpanStart:
			parents[e.Span] = e.Parent
			names[e.Span] = e.Name
		case EvSpanEnd:
			ends[e.Span] = e
		default:
			t.Errorf("unexpected event type %q", e.Type)
		}
	}
	if len(parents) != 5 || len(ends) != 5 {
		t.Fatalf("got %d starts, %d ends, want 5 each", len(parents), len(ends))
	}
	// Walk each round up to the root.
	rounds := 0
	for id, name := range names {
		if name != "round" {
			continue
		}
		rounds++
		p := parents[id]
		if names[p] != "solve" {
			t.Errorf("round %s parented by %q, want solve", id, names[p])
		}
		if gp := parents[p]; names[gp] != "request" || parents[gp] != "" {
			t.Errorf("solve parented by %q (parent %q), want root request", names[gp], parents[gp])
		}
	}
	if rounds != 3 {
		t.Errorf("found %d round spans, want 3", rounds)
	}
	// Ends carry wall_ns and the attributes; start events carry none.
	for id, e := range ends {
		if e.Fields["wall_ns"] < 0 {
			t.Errorf("span %s wall_ns = %v", id, e.Fields["wall_ns"])
		}
		switch names[id] {
		case "solve":
			if e.Fields["k"] != 3 {
				t.Errorf("solve attrs = %v, want k=3", e.Fields)
			}
		case "request":
			if e.Fields["status"] != 200 {
				t.Errorf("request attrs = %v, want status=200", e.Fields)
			}
		}
	}
}

// TestSpanNilSafety checks the zero-cost path: inactive collectors yield
// nil spans and every method, context helper included, is a no-op.
func TestSpanNilSafety(t *testing.T) {
	for _, c := range []Collector{nil, Nop{}} {
		s := StartSpan(c, "t", "op")
		if s != nil {
			t.Fatalf("StartSpan(%T) = %v, want nil", c, s)
		}
	}
	// A stage needs a live collector of its own: a live parent is not
	// enough.
	live := ContextWithSpan(context.Background(), StartSpan(NewMetrics(), "t", "op"))
	for _, c := range []Collector{nil, Nop{}} {
		if st := StartStage(live, c, "x"); st != nil {
			t.Fatalf("StartStage(%T) under a live parent = %v, want nil", c, st)
		}
	}
	var s *Span
	s.SetAttr("k", 1)
	s.SetAlg("greedy2")
	if ns := s.End(); ns != 0 {
		t.Errorf("nil.End = %d", ns)
	}
	if s.ID() != "" || s.TraceID() != "" {
		t.Error("nil span has identity")
	}
	ctx := context.Background()
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Error("ContextWithSpan(ctx, nil) wrapped the context")
	}
	if SpanFromContext(ctx) != nil {
		t.Error("SpanFromContext on bare context not nil")
	}
	if SpanFromContext(nil) != nil {
		t.Error("SpanFromContext(nil) not nil")
	}
}

// TestSpanContextRoundTrip checks the ambient-span plumbing lower layers
// rely on.
func TestSpanContextRoundTrip(t *testing.T) {
	m := NewMetrics()
	s := StartSpan(m, "req-2", "request")
	ctx := ContextWithSpan(context.Background(), s)
	got := SpanFromContext(ctx)
	if got != s {
		t.Fatalf("SpanFromContext = %v, want %v", got, s)
	}
	child := StartStage(ctx, m, "inner")
	if child.TraceID() != "req-2" {
		t.Errorf("child trace = %q", child.TraceID())
	}
}

// TestStartStage checks what a stage adds to a span: a root stage when the
// context carries no span, a child of the context's span otherwise, and an
// End that records name+"_ns" on the stage's own collector next to the
// span_end, which carries the Alg set on it.
func TestStartStage(t *testing.T) {
	sink, read := capture(t)
	m := NewMetrics()
	c := Multi(m, sink)
	root := StartStage(context.Background(), c, StageShardMerge)
	if root.ID() == "" || root.TraceID() != "" {
		t.Fatalf("root stage id %q trace %q, want an id and no trace", root.ID(), root.TraceID())
	}
	// The parent sits on another collector: the child stage's events and
	// timer still go to c.
	req := StartSpan(NewMetrics(), "req-3", "request")
	round := StartStage(ContextWithSpan(context.Background(), req), c, StageRound)
	round.SetAlg("greedy2")
	round.SetAttr("round", 1)
	if ns := round.End(); ns < 0 {
		t.Errorf("End = %d", ns)
	}
	root.End()

	s := m.Snapshot()
	for _, name := range []string{StageShardMerge, StageRound} {
		if n := s.TimersNS[name+"_ns"].Count; n != 1 {
			t.Errorf("%s_ns has %d samples, want 1", name, n)
		}
	}
	var ends []Event
	for _, e := range read() {
		if e.Type == EvSpanEnd {
			ends = append(ends, e)
		}
	}
	if len(ends) != 2 {
		t.Fatalf("%d span_end events, want 2", len(ends))
	}
	if e := ends[0]; e.Name != StageRound || e.Alg != "greedy2" || e.Trace != "req-3" ||
		e.Parent != req.ID() || e.Fields["round"] != 1 {
		t.Errorf("round stage's span_end = %+v", e)
	}
	if e := ends[1]; e.Name != StageShardMerge || e.Alg != "" || e.Parent != "" || e.Trace != "" {
		t.Errorf("root stage's span_end = %+v", e)
	}
}

// TestSpanEndIdempotent checks double-End emits once and late SetAttr is
// dropped.
func TestSpanEndIdempotent(t *testing.T) {
	m, read := capture(t)
	s := StartSpan(m, "t", "op")
	if ns := s.End(); ns < 0 {
		t.Errorf("first End = %d", ns)
	}
	s.SetAttr("late", 1)
	if ns := s.End(); ns != 0 {
		t.Errorf("second End = %d, want 0", ns)
	}
	var ends []Event
	for _, e := range read() {
		if e.Type == EvSpanEnd {
			ends = append(ends, e)
		}
	}
	if len(ends) != 1 {
		t.Fatalf("%d span_end events, want 1", len(ends))
	}
	if _, ok := ends[0].Fields["late"]; ok {
		t.Error("attribute set after End leaked into the event")
	}
}
