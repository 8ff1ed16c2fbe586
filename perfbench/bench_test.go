package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameRequests(t *testing.T) {
	w, _ := lookupWorkload("serve-mix")
	a, b, c := newMixPlan(w, 7), newMixPlan(w, 7), newMixPlan(w, 8)
	kinds := map[reqKind]int{}
	for i := 0; i < 200; i++ {
		ra, rb := a.take(i), b.take(i)
		if ra.kind != rb.kind || ra.stream != rb.stream || ra.index != rb.index || !bytes.Equal(ra.body, rb.body) {
			t.Fatalf("request %d differs between two plans of seed 7", i)
		}
		kinds[ra.kind]++
	}
	for _, k := range []reqKind{kindSolve, kindReplay, kindChurn} {
		if kinds[k] == 0 {
			t.Errorf("200 requests hold no %s request", k)
		}
	}
	if bytes.Equal(newMixPlan(w, 7).take(0).body, c.take(0).body) {
		t.Error("seeds 7 and 8 give the same first body")
	}

	s1, s2, s3 := arrivals(7, streamTimed, mixRate, 5), arrivals(7, streamTimed, mixRate, 5), arrivals(8, streamTimed, mixRate, 5)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("seed 7 gives two different arrival schedules")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("seeds 7 and 8 give the same arrival schedule")
	}
	if n := float64(len(s1)); math.Abs(n-5*mixRate) > 4*math.Sqrt(5*mixRate) {
		t.Errorf("%v arrivals in 5 s at %v/s", n, mixRate)
	}

	large, _ := lookupWorkload("solve-large")
	large.n = 2000
	if !bytes.Equal(solveBody(large, 3, streamTimed, 4), solveBody(large, 3, streamTimed, 4)) {
		t.Error("the same seed gives two different large bodies")
	}
	if bytes.Equal(solveBody(large, 3, streamTimed, 4), solveBody(large, 4, streamTimed, 4)) {
		t.Error("seeds 3 and 4 give the same large body")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for q, want := range map[float64]float64{10: 1, 50: 5, 90: 9, 91: 10, 99: 10, 100: 10} {
		if got := percentile(xs, q); got != want {
			t.Errorf("p%v = %v, want %v", q, got, want)
		}
	}
	ramp := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, c := range []struct {
		n      int
		q      float64
		value  float64
		beyond int
		ok     bool
	}{
		{n: 1000, q: 99, value: 990, beyond: 10, ok: true},
		{n: 2000, q: 99, value: 1980, beyond: 20, ok: true},
		{n: 450, q: 100 * 440.0 / 450, value: 440, beyond: 10, ok: true},
		{n: 20, q: 50, value: 10, beyond: 10, ok: true},
		{n: 15},
	} {
		got := tailOf(ramp(c.n))
		if got.OK != c.ok || (c.ok && (got.Q != c.q || got.Value != c.value || got.Beyond != c.beyond)) {
			t.Errorf("tailOf(%d samples) = %+v, want q %v value %v beyond %d ok %v", c.n, got, c.q, c.value, c.beyond, c.ok)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 6, Parent: 3, Start: 25, End: 35},
		{ID: 7, Parent: 3, Start: 40, End: 45},
	}
	want := map[int]int64{1: 100 - (40 + 10 + 10), 2: 20, 3: 30 - 15, 4: 10, 5: 30, 6: 10, 7: 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestStealShare(t *testing.T) {
	busy, steal, ok := parseCPULine("cpu  100 5 20 900 7 3 2 30 11 0\ncpu0 50 2 10 450 3 1 1 15 5 0\n")
	if !ok || busy != 100+5+20+3+2+30 || steal != 30 {
		t.Errorf("parseCPULine = %v, %v, %v; want 160, 30, true", busy, steal, ok)
	}
	for _, line := range []string{"", "intr 1 2 3", "cpu 1 2 3"} {
		if _, _, ok := parseCPULine(line); ok {
			t.Errorf("parseCPULine(%q) accepted a line that is not the aggregate cpu line", line)
		}
	}

	t0 := time.Unix(1000, 0)
	sec := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	m := &stealMeter{samples: []cpuSample{
		{at: sec(0), busy: 0, steal: 0},
		{at: sec(2), busy: 200, steal: 0},  // 2 s with nothing stolen
		{at: sec(4), busy: 400, steal: 50}, // then a quarter stolen
	}}
	for _, c := range []struct {
		a, b float64
		want float64
	}{
		{0, 2, 0},
		{2, 4, 0.25},
		{1, 3, 0.125},
		{2.9, 3.1, 0.25},  // widened to the second around 3 s
		{1.5, 2.5, 0.125}, // half of it in each stretch
		{3.5, 5, 0.25},    // clamped to the last sample
		{-9, -8, 0},       // before the first sample
	} {
		if got := m.share(sec(c.a), sec(c.b)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("share(%v s, %v s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if got, want := m.net(sec(2), sec(4)), 1500*time.Millisecond; got != want {
		t.Errorf("net over a quarter stolen = %v, want %v", got, want)
	}
	if got := (&stealMeter{}).net(sec(0), sec(1)); got != time.Second {
		t.Errorf("net without samples = %v, want the wall time", got)
	}
}

// TestNothingOutlivesRun runs short workloads to completion, into a failed
// request and into an interruption, then checks that every listener they
// opened is closed and that the process has no child.
func TestNothingOutlivesRun(t *testing.T) {
	mix, _ := lookupWorkload("serve-mix")
	cluster, _ := lookupWorkload("cluster-large")
	cluster.n = 4000
	broken := cluster
	broken.solver = "no-such-solver"

	for _, c := range []struct {
		w         workload
		interrupt time.Duration // 0: run to completion
		fails     bool
	}{
		{w: mix},
		{w: cluster},
		{w: broken, fails: true},
		{w: mix, interrupt: 1500 * time.Millisecond, fails: true},
		{w: cluster, interrupt: 400 * time.Millisecond, fails: true},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		if c.interrupt > 0 {
			time.AfterFunc(c.interrupt, cancel)
		}
		var addrs []string
		var out bytes.Buffer
		res, err := runBench(ctx, runConfig{
			w: c.w, seed: 1, seconds: 1, traced: !c.fails, conns: 2,
			outDir: t.TempDir(), out: &out,
			onStack: func(st *stack) { addrs = append(addrs, st.addrs()...) },
		})
		cancel()
		switch {
		case !c.fails && (err != nil || !res.Correct):
			t.Errorf("%s: run failed: %v\n%s", c.w.name, err, out.String())
		case c.fails && err == nil:
			t.Errorf("%s (%s): the run returned no error", c.w.name, c.w.solver)
		}
		if len(addrs) < c.w.peers+1 {
			t.Errorf("%s: saw %d listeners, want at least %d", c.w.name, len(addrs), c.w.peers+1)
		}
		for _, a := range addrs {
			if conn, err := net.DialTimeout("tcp", a, time.Second); err == nil {
				conn.Close()
				t.Errorf("%s: listener %s still accepts connections", c.w.name, a)
			}
		}
		if kids := children(t); len(kids) > 0 {
			t.Errorf("%s: the process has child processes %v", c.w.name, kids)
		}
	}
}

// children lists the process's child PIDs from /proc.
func children(t *testing.T) []string {
	tasks, err := filepath.Glob("/proc/self/task/*/children")
	if err != nil || len(tasks) == 0 {
		t.Skip("no /proc task children files on this system")
	}
	var kids []string
	for _, f := range tasks {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		kids = append(kids, strings.Fields(string(b))...)
	}
	return kids
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metric lists in
// step with the tables the benchmark prints from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %d chars), want %q with a one-line why of at most 200 chars",
				i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, d := range got {
			w := want[i]
			if d.Name != w.name || d.Unit != w.unit || d.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, d, w)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %v out of (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}
