package obs

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string // family + suffix, labels stripped
	labels string
	value  float64
}

// parseProm lints and parses WriteProm output: every family must have
// exactly one HELP and one TYPE line, in that order, before its samples,
// and no family may repeat.
func parseProm(t *testing.T, text string) (types map[string]string, samples []promSample) {
	t.Helper()
	types = map[string]string{}
	help := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)[2]
			if help[f] {
				t.Errorf("duplicate HELP for %s", f)
			}
			help[f] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			f, typ := fields[2], fields[3]
			if !help[f] {
				t.Errorf("TYPE before HELP for %s", f)
			}
			if _, dup := types[f]; dup {
				t.Errorf("duplicate TYPE for %s", f)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Errorf("family %s has unknown type %q", f, typ)
			}
			types[f] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unexpected comment line %q", line)
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		labels := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			labels = name[i:]
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		samples = append(samples, promSample{name: name, labels: labels, value: v})
	}
	return types, samples
}

// familyOf strips histogram sample suffixes back to the family name.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// TestWritePromLint populates every metric kind and lints the exposition:
// suffix conventions, no duplicate families, samples only under a declared
// family, cumulative monotone buckets consistent with _count.
func TestWritePromLint(t *testing.T) {
	m := NewMetrics()
	m.Count(CtrRounds, 5)
	m.Count(SrvRouteRequests("solve"), 3)
	m.Count(SrvRouteRequests("churn"), 2)
	m.Gauge(GaugeParWorkers, 8)
	m.Gauge(SrvRouteInFlight("solve"), 1)
	for i := 0; i < 100; i++ {
		m.TimeNS(SrvRouteRequestNS("solve"), int64(1000*(i+1)))
		m.Observe(ObsSEBDepth, float64(i%7))
	}

	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	text := buf.String()
	types, samples := parseProm(t, text)

	for f, typ := range types {
		if !strings.HasPrefix(f, "cd_") {
			t.Errorf("family %s lacks the cd_ prefix", f)
		}
		if typ == "counter" && !strings.HasSuffix(f, "_total") {
			t.Errorf("counter %s lacks _total", f)
		}
		if strings.HasSuffix(f, "_ns") {
			t.Errorf("family %s leaked the _ns suffix; want _seconds", f)
		}
	}
	for _, s := range samples {
		if _, ok := types[familyOf(s.name, types)]; !ok {
			t.Errorf("sample %s%s has no family declaration", s.name, s.labels)
		}
	}

	// The specific families the serving layer relies on.
	for f, typ := range map[string]string{
		"cd_core_rounds_total":           "counter",
		"cd_serve_route_requests_total":  "counter",
		"cd_serve_route_in_flight":       "gauge",
		"cd_serve_route_request_seconds": "histogram",
		"cd_uptime_seconds":              "gauge",
	} {
		if types[f] != typ {
			t.Errorf("family %s: type %q, want %q", f, types[f], typ)
		}
	}

	// Route labels: both routes under one family name.
	routes := map[string]bool{}
	for _, s := range samples {
		if s.name == "cd_serve_route_requests_total" {
			routes[s.labels] = true
		}
	}
	if !routes[`{route="solve"}`] || !routes[`{route="churn"}`] {
		t.Errorf("route labels wrong: %v", routes)
	}

	// Histogram shape: cumulative monotone, +Inf == _count, bounds in
	// seconds (the 100 samples run 1µs..100µs, so every bound < 1s).
	var buckets []promSample
	var count, sum float64
	for _, s := range samples {
		switch s.name {
		case "cd_serve_route_request_seconds_bucket":
			buckets = append(buckets, s)
		case "cd_serve_route_request_seconds_count":
			count = s.value
		case "cd_serve_route_request_seconds_sum":
			sum = s.value
		}
	}
	if count != 100 {
		t.Fatalf("_count = %v, want 100", count)
	}
	if sum <= 0 || sum > 1 { // 5050 * 1000ns ≈ 5.05e-3 s
		t.Errorf("_sum = %v s, want small positive", sum)
	}
	if len(buckets) < 2 {
		t.Fatalf("only %d bucket samples", len(buckets))
	}
	prev := -1.0
	sawInf := false
	for _, b := range buckets {
		if b.value < prev {
			t.Errorf("bucket counts not cumulative: %v after %v", b.value, prev)
		}
		prev = b.value
		if strings.Contains(b.labels, `le="+Inf"`) {
			sawInf = true
			if b.value != count {
				t.Errorf("+Inf bucket = %v, want %v", b.value, count)
			}
		}
	}
	if !sawInf {
		t.Error("no +Inf bucket")
	}
}

// TestWritePromDeterministic checks two renders of the same state differ
// only in the uptime gauge.
func TestWritePromDeterministic(t *testing.T) {
	m := NewMetrics()
	m.Count(CtrRounds, 1)
	m.Gauge(GaugeParWorkers, 2)
	m.TimeNS(timRound, 500)
	var a, b bytes.Buffer
	if err := m.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if stripVolatile(a.String()) != stripVolatile(b.String()) {
		t.Errorf("renders differ:\n%s\n---\n%s", a.String(), b.String())
	}
}

// TestWriteJSONDeterministic pins the /metrics JSON contract: map keys come
// out sorted, and two renders of the same state are byte-identical apart
// from the duration stamp.
func TestWriteJSONDeterministic(t *testing.T) {
	m := NewMetrics()
	for _, name := range []string{"z.last", "a.first", "m.mid"} {
		m.Count(name, 1)
		m.Gauge("g."+name, 2)
	}
	var a, b bytes.Buffer
	if err := m.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if stripVolatile(a.String()) != stripVolatile(b.String()) {
		t.Errorf("renders differ:\n%s\n---\n%s", a.String(), b.String())
	}
	// Key order: each counter name must appear after the previous in sorted
	// order within the counters block.
	text := a.String()
	iA := strings.Index(text, `"a.first"`)
	iM := strings.Index(text, `"m.mid"`)
	iZ := strings.Index(text, `"z.last"`)
	if iA < 0 || iM < 0 || iZ < 0 || !(iA < iM && iM < iZ) {
		t.Errorf("counter keys not sorted: a=%d m=%d z=%d", iA, iM, iZ)
	}
}

// TestQuantileWithinOneBucket checks the histogram quantile estimate
// against the exact sample quantile: the estimate is the containing
// bucket's upper bound, so exact ≤ estimate ≤ 2·exact always holds on the
// power-of-two ladder (for samples ≥ 1).
func TestQuantileWithinOneBucket(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 20; trial++ {
		h := &Histogram{}
		n := 200 + rng.Intn(800)
		samples := make([]float64, n)
		for i := range samples {
			// Log-uniform over ~[1, 1e6]: exercises many rungs.
			samples[i] = math.Pow(10, 6*rng.Float64())
			h.Add(samples[i])
		}
		sort.Float64s(samples)
		snap := h.Snapshot()
		for _, q := range []struct {
			p   float64
			est float64
		}{{0.50, snap.P50}, {0.90, snap.P90}, {0.99, snap.P99}} {
			idx := int(math.Ceil(q.p*float64(n))) - 1
			exact := samples[idx]
			if q.est < exact || q.est > 2*exact {
				t.Errorf("trial %d p%.0f: estimate %v outside [exact, 2*exact] = [%v, %v]",
					trial, 100*q.p, q.est, exact, 2*exact)
			}
		}
	}
}

func TestPromNameMapping(t *testing.T) {
	cases := []struct {
		in, name, labels string
	}{
		{"core.rounds", "cd_core_rounds", ""},
		{"serve.route.solve.requests", "cd_serve_route_requests", `{route="solve"}`},
		{"serve.route.churn.request_ns", "cd_serve_route_request_ns", `{route="churn"}`},
		{"weird name.x", "cd_weird_name_x", ""},
	}
	for _, c := range cases {
		name, labels := promName(c.in)
		if name != c.name || labels != c.labels {
			t.Errorf("promName(%q) = (%q, %q), want (%q, %q)", c.in, name, labels, c.name, c.labels)
		}
	}
}
