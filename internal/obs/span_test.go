package obs

import (
	"context"
	"testing"
)

// TestSpanTreeReconstruction builds a three-level tree and checks the
// emitted events reassemble into it: every span_end links to its parent,
// all under one trace ID.
func TestSpanTreeReconstruction(t *testing.T) {
	m, read := capture(t)
	root := StartSpan(m, "req-1", "request")
	if root == nil {
		t.Fatal("StartSpan returned nil on a live collector")
	}
	if root.TraceID() != "req-1" {
		t.Errorf("TraceID = %q, want req-1", root.TraceID())
	}
	solve := root.Child("solve")
	solve.SetAttr("k", 3)
	for i := 0; i < 3; i++ {
		r := solve.Child("round")
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
	var s *Span
	child := s.Child("x")
	if child != nil {
		t.Fatal("nil.Child materialized a span")
	}
	s.SetAttr("k", 1)
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
	child := got.Child("inner")
	if child.TraceID() != "req-2" {
		t.Errorf("child trace = %q", child.TraceID())
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
