package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the benchmark. Spans stay in memory and
// are written once, as JSON lines, when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    string `json:"req"`    // the X-Request-ID the request was sent with
	Name   string `json:"name"`
	Layer  string `json:"layer,omitempty"` // package the call goes into; "" for a request root
	Start  int64  `json:"start_ns"`        // since the tracer was created
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. A nil *tracer records nothing, so untraced code
// paths call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// record adds a span measured by the caller and returns its ID.
func (t *tracer) record(parent int, req, name, layer string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer,
		Start: t.ns(start), End: t.ns(end)})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(parent int, req, name, layer string) int {
	now := time.Now()
	return t.record(parent, req, name, layer, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) setAlloc(id int, bytes uint64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Alloc = bytes
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps each span ID to its self time: the span's duration minus
// the union of its children's intervals, clipped to the span. Children that
// overlap each other (parallel part solves) are not subtracted twice.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans'
// intervals.
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, c := range spans {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
