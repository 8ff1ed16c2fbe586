package cli

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// readSnapshot parses a -metrics output file.
func readSnapshot(t *testing.T, path string) obs.Snapshot {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s obs.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("metrics file not a Snapshot: %v\n%.200s", err, data)
	}
	return s
}

// TestGreedyMetricsAllAlgorithms is the acceptance path: -all with -metrics
// and -events must record reward-evaluation counts in one snapshot and
// per-round gains and wall times for every algorithm in the event stream,
// as the span_end of each core.round stage, one per core.round_ns sample.
func TestGreedyMetricsAllAlgorithms(t *testing.T) {
	js := genJSON(t, "-n", "40")
	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.json")
	ePath := filepath.Join(dir, "e.jsonl")
	var out bytes.Buffer
	err := Greedy(context.Background(), []string{"-all", "-k", "2", "-r", "1.5", "-metrics", mPath, "-events", ePath},
		strings.NewReader(js), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := readSnapshot(t, mPath)
	if s.Counters[obs.CtrGainEvals] == 0 {
		t.Error("no reward evaluations counted")
	}
	if s.Counters[obs.CtrRounds] != 4*2 {
		t.Errorf("rounds counter = %d, want 8 (4 algorithms × k=2)", s.Counters[obs.CtrRounds])
	}
	// The event stream must be valid JSONL with monotonic timestamps.
	f, err := os.Open(ePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var last int64 = -1
	lines := 0
	rounds := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("events line %d invalid: %v", lines, err)
		}
		if e.TNS < last {
			t.Fatalf("events line %d: t_ns went backwards", lines)
		}
		last = e.TNS
		if e.Type == obs.EvSpanEnd && e.Name == obs.StageRound {
			rounds[e.Alg]++
			if _, ok := e.Fields["gain"]; !ok {
				t.Errorf("%s round event missing gain", e.Alg)
			}
			if e.Fields["wall_ns"] <= 0 {
				t.Errorf("%s round event missing wall time", e.Alg)
			}
		}
	}
	for _, alg := range []string{"greedy1", "greedy2", "greedy3", "greedy4"} {
		if rounds[alg] != 2 {
			t.Errorf("%s: %d round stages, want 2", alg, rounds[alg])
		}
	}
	if n := s.TimersNS[obs.StageRound+"_ns"].Count; n != 4*2 {
		t.Errorf("%d core.round_ns samples, want 8", n)
	}
}

func TestGreedyMetricsToStdout(t *testing.T) {
	js := genJSON(t)
	var out bytes.Buffer
	err := Greedy(context.Background(), []string{"-json", "-alg", "greedy3", "-k", "1", "-r", "1.5", "-metrics", "-"},
		strings.NewReader(js), &out)
	if err != nil {
		t.Fatal(err)
	}
	// Two JSON documents on stdout: the result, then the snapshot.
	dec := json.NewDecoder(strings.NewReader(out.String()))
	var result map[string]any
	if err := dec.Decode(&result); err != nil {
		t.Fatalf("result doc: %v", err)
	}
	var snap obs.Snapshot
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("snapshot doc: %v", err)
	}
	if snap.Counters[obs.CtrRounds] != 1 {
		t.Errorf("rounds = %d, want 1", snap.Counters[obs.CtrRounds])
	}
}

func TestGreedyEventsBadPathRejected(t *testing.T) {
	js := genJSON(t)
	var out bytes.Buffer
	err := Greedy(context.Background(), []string{"-k", "1", "-events", filepath.Join(t.TempDir(), "no", "such", "dir", "e.jsonl")},
		strings.NewReader(js), &out)
	if err == nil {
		t.Error("unwritable events path accepted")
	}
}

// Bad -metrics paths must fail before any solver work runs, not after.
func TestGreedyMetricsBadPathRejectedEagerly(t *testing.T) {
	js := genJSON(t)
	var out bytes.Buffer
	err := Greedy(context.Background(), []string{"-k", "1", "-metrics", filepath.Join(t.TempDir(), "no", "such", "dir", "m.json")},
		strings.NewReader(js), &out)
	if err == nil {
		t.Fatal("unwritable metrics path accepted")
	}
	if out.Len() > 0 {
		t.Errorf("solver ran before the metrics path was checked:\n%s", out.String())
	}
}

func TestStationMetricsAndPprof(t *testing.T) {
	js := genJSON(t)
	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.json")
	var out bytes.Buffer
	err := Station(context.Background(), []string{"-alg", "greedy2-lazy", "-k", "2", "-periods", "2",
		"-metrics", mPath, "-pprof", "127.0.0.1:0"},
		strings.NewReader(js), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pprof: http://") {
		t.Error("pprof address not announced")
	}
	s := readSnapshot(t, mPath)
	// 2 periods × k=2 rounds, scheduled by the lazy algorithm.
	if s.Counters[obs.CtrRounds] < 4 {
		t.Errorf("rounds = %d, want >= 4", s.Counters[obs.CtrRounds])
	}
	// The simulator's per-period reward instances carry the collector too.
	if s.Counters[obs.CtrGainEvals] == 0 {
		t.Error("broadcast instances did not count reward evaluations")
	}
	if err := Station(context.Background(), []string{"-pprof", "256.256.256.256:99999"}, strings.NewReader(js), &out); err == nil {
		t.Error("bad pprof address accepted")
	}
}

func TestBenchMetrics(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.json")
	var out bytes.Buffer
	if err := Bench(context.Background(), []string{"-run", "table1", "-quick", "-metrics", mPath}, &out); err != nil {
		t.Fatal(err)
	}
	s := readSnapshot(t, mPath)
	if s.Counters[obs.CtrExperiments] != 1 {
		t.Errorf("experiments counter = %d, want 1", s.Counters[obs.CtrExperiments])
	}
	if s.TimersNS[obs.TimExperiment].Count != 1 {
		t.Error("experiment wall time not recorded")
	}
	// The table1 driver runs greedy 2/3/4 with cfg.Obs attached.
	if s.Counters[obs.CtrRounds] == 0 {
		t.Error("experiment rounds not traced through RunConfig.Obs")
	}
}

// TestBenchTimedDriversMetrics: the drivers that time their own solves
// (ablation-scale, nearlinear-scale, complexity) build their instances with
// the run's collector, so -metrics records their rounds and gain
// evaluations, and their notes say the times include the counting.
func TestBenchTimedDriversMetrics(t *testing.T) {
	for _, id := range []string{"ablation-scale", "nearlinear-scale", "complexity"} {
		t.Run(id, func(t *testing.T) {
			mPath := filepath.Join(t.TempDir(), "m.json")
			var out bytes.Buffer
			if err := Bench(context.Background(), []string{"-run", id, "-quick", "-metrics", mPath}, &out); err != nil {
				t.Fatal(err)
			}
			s := readSnapshot(t, mPath)
			if s.Counters[obs.CtrRounds] <= 0 || s.Counters[obs.CtrGainEvals] <= 0 {
				t.Errorf("core.rounds = %d, reward.gain_evals = %d, want both > 0",
					s.Counters[obs.CtrRounds], s.Counters[obs.CtrGainEvals])
			}
			if !strings.Contains(out.String(), "per-evaluation counting") {
				t.Errorf("output lacks the counting note:\n%s", out.String())
			}
		})
	}
}

// TestGreedyShardedMetrics: a sharded solve reports its pipeline telemetry
// through the instance's collector — the shard.* counters and exactly k
// rounds, the merge's — under both sharding surfaces and both output modes.
func TestGreedyShardedMetrics(t *testing.T) {
	js := genJSON(t, "-n", "300")
	for _, args := range [][]string{
		{"-alg", "sharded(greedy2-lazy)", "-json"},
		{"-shards", "3", "-alg", "greedy2"},
	} {
		mPath := filepath.Join(t.TempDir(), "m.json")
		var out bytes.Buffer
		full := append([]string{"-k", "4", "-r", "0.5", "-metrics", mPath}, args...)
		if err := Greedy(context.Background(), full, strings.NewReader(js), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		s := readSnapshot(t, mPath)
		if got := s.Counters[obs.CtrShardParts]; got < 2 {
			t.Errorf("%v: shard.parts = %d, want >= 2", args, got)
		}
		if got := s.Counters[obs.CtrRounds]; got != 4 {
			t.Errorf("%v: core.rounds = %d, want 4", args, got)
		}
	}
}

// TestGreedyExhaustiveCancelledMetrics: a cut-short exhaustive search counts
// its cancellation on the instance's collector.
func TestGreedyExhaustiveCancelledMetrics(t *testing.T) {
	js := genJSON(t)
	mPath := filepath.Join(t.TempDir(), "m.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if err := Greedy(ctx, []string{"-alg", "exhaustive", "-k", "2", "-metrics", mPath},
		strings.NewReader(js), &out); err != nil {
		t.Fatal(err)
	}
	if got := readSnapshot(t, mPath).Counters[obs.CtrCancelled]; got != 1 {
		t.Errorf("core.cancelled = %d, want 1", got)
	}
}

// TestStationShardedMetrics: cdstation's sharded algorithm reports its
// pipeline telemetry through each period's instance.
func TestStationShardedMetrics(t *testing.T) {
	js := genJSON(t, "-n", "300")
	mPath := filepath.Join(t.TempDir(), "m.json")
	var out bytes.Buffer
	if err := Station(context.Background(), []string{"-alg", "sharded(greedy2-lazy)", "-k", "2", "-r", "0.5",
		"-periods", "2", "-metrics", mPath}, strings.NewReader(js), &out); err != nil {
		t.Fatal(err)
	}
	if got := readSnapshot(t, mPath).Counters[obs.CtrShardParts]; got < 2 {
		t.Errorf("shard.parts = %d, want >= 2", got)
	}
}
