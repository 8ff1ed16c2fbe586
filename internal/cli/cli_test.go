package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/solver"
	"repro/internal/spatial"
)

func TestWeightSchemeByName(t *testing.T) {
	if s, err := WeightSchemeByName("same"); err != nil || s != pointset.UnitWeight {
		t.Error("same scheme wrong")
	}
	if s, err := WeightSchemeByName("random"); err != nil || s != pointset.RandomIntWeight {
		t.Error("random scheme wrong")
	}
	if _, err := WeightSchemeByName("x"); err == nil {
		t.Error("bad scheme accepted")
	}
}

func genJSON(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	full := append([]string{"-n", "20", "-seed", "3"}, args...)
	if err := TraceGen(context.Background(), full, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestTraceGenJSONAndCSV(t *testing.T) {
	js := genJSON(t)
	if !strings.Contains(js, `"users"`) || !strings.Contains(js, `"interest"`) {
		t.Errorf("json output wrong: %.80s", js)
	}
	var csvOut bytes.Buffer
	if err := TraceGen(context.Background(), []string{"-n", "5", "-format", "csv"}, &csvOut); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvOut.String(), "id,weight,x0,x1") {
		t.Errorf("csv output wrong: %.40s", csvOut.String())
	}
}

// TestTraceGenSetFormat: -format set emits the pointset wire schema — the
// exact JSON the serving layer decodes as a /v1/solve "instance".
func TestTraceGenSetFormat(t *testing.T) {
	var out bytes.Buffer
	if err := TraceGen(context.Background(), []string{"-n", "7", "-seed", "3", "-format", "set"}, &out); err != nil {
		t.Fatal(err)
	}
	var set pointset.Set
	if err := json.Unmarshal(out.Bytes(), &set); err != nil {
		t.Fatalf("set output does not round-trip the pointset codec: %v\n%s", err, out.String())
	}
	if set.Len() != 7 || set.Dim() != 2 {
		t.Errorf("set is %dx%d, want 7x2", set.Len(), set.Dim())
	}
	if !strings.Contains(out.String(), `"dim"`) || !strings.Contains(out.String(), `"points"`) {
		t.Errorf("set output missing schema fields: %.80s", out.String())
	}
}

func TestTraceGenRejects(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-kind", "bogus"},
		{"-weights", "bogus"},
		{"-format", "bogus"},
		{"-dim", "0"},
		{"-side", "-1"},
		{"-n", "0"},
	} {
		if err := TraceGen(context.Background(), args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestTraceGenDeterministic(t *testing.T) {
	if genJSON(t) != genJSON(t) {
		t.Error("same seed produced different traces")
	}
}

func TestGreedyPipeline(t *testing.T) {
	js := genJSON(t)
	var out bytes.Buffer
	err := Greedy(context.Background(), []string{"-alg", "greedy2", "-k", "2", "-r", "1.5", "-exhaustive"},
		strings.NewReader(js), &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"greedy2 on 20 users", "round", "total reward", "exhaustive baseline", "approximation ratio"} {
		if !strings.Contains(text, want) {
			t.Errorf("cdgreedy output missing %q:\n%s", want, text)
		}
	}
}

func TestKeywordsFlowThrough(t *testing.T) {
	var trOut bytes.Buffer
	if err := TraceGen(context.Background(), []string{"-n", "10", "-keywords", "genre,tempo"}, &trOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trOut.String(), `"keywords"`) || !strings.Contains(trOut.String(), "genre") {
		t.Fatalf("keywords not serialized: %.120s", trOut.String())
	}
	var out bytes.Buffer
	if err := Greedy(context.Background(), []string{"-k", "1", "-r", "1.5"}, strings.NewReader(trOut.String()), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "genre=") || !strings.Contains(out.String(), "tempo=") {
		t.Errorf("centers not keyword-labelled:\n%s", out.String())
	}
	// Keyword count must match the dimension.
	if err := TraceGen(context.Background(), []string{"-n", "5", "-keywords", "only-one"}, &trOut); err == nil {
		t.Error("mismatched keyword count accepted")
	}
	// Empty keyword rejected.
	if err := TraceGen(context.Background(), []string{"-n", "5", "-keywords", "a,"}, &trOut); err == nil {
		t.Error("empty keyword accepted")
	}
}

func TestGreedyJSONOutput(t *testing.T) {
	js := genJSON(t)
	var out bytes.Buffer
	if err := Greedy(context.Background(), []string{"-json", "-alg", "greedy3", "-k", "2", "-r", "1.5"},
		strings.NewReader(js), &out); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Algorithm string      `json:"algorithm"`
		Centers   [][]float64 `json:"centers"`
		Gains     []float64   `json:"gains"`
		Total     float64     `json:"total"`
	}
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid json: %v\n%s", err, out.String())
	}
	if parsed.Algorithm != "greedy3" || len(parsed.Centers) != 2 || len(parsed.Gains) != 2 {
		t.Fatalf("json shape wrong: %+v", parsed)
	}
	var sum float64
	for _, g := range parsed.Gains {
		sum += g
	}
	if sum != parsed.Total {
		t.Fatalf("gains %v do not sum to total %v", parsed.Gains, parsed.Total)
	}
}

// instanceSpy is greedy2 registered as "test-instance-spy": it keeps the
// last instance it solved, so a test can read the finder cdgreedy built.
type instanceSpy struct{ core.LocalGreedy }

var lastSolved *reward.Instance

func (s instanceSpy) Run(ctx context.Context, in *reward.Instance, k int) (*core.Result, error) {
	lastSolved = in
	return s.LocalGreedy.Run(ctx, in, k)
}

func init() {
	if err := solver.Register(solver.Entry{Name: "test-instance-spy", Summary: "test: greedy2 that keeps its instance",
		New: func(solver.Options) core.Algorithm { return instanceSpy{} }}); err != nil {
		panic(err)
	}
}

// TestGreedyIndexesInstance: cdgreedy solves on an instance carrying a grid
// over its users at radius -r where spatial.Prunes says it pays for itself
// (400 users at r = 0.5), and on an unindexed one elsewhere (50 users).
func TestGreedyIndexesInstance(t *testing.T) {
	for _, c := range []struct {
		n       int
		r       string
		indexed bool
	}{{400, "0.5", true}, {50, "0.7", false}} {
		js := genJSON(t, "-n", fmt.Sprint(c.n))
		for _, args := range [][]string{{}, {"-json"}} {
			lastSolved = nil
			var out bytes.Buffer
			if err := Greedy(context.Background(), append(args, "-alg", "test-instance-spy", "-k", "2", "-r", c.r),
				strings.NewReader(js), &out); err != nil {
				t.Fatal(err)
			}
			in := lastSolved
			if in == nil || in.N() != c.n || fmt.Sprint(in.Radius) != c.r {
				t.Fatalf("%v: the spy solved no instance of %d users at r = %s", args, c.n, c.r)
			}
			if !c.indexed {
				if f := in.Finder(); f != nil {
					t.Errorf("%d users, %v: finder %T, want none", c.n, args, f)
				}
				continue
			}
			g, ok := in.Finder().(*spatial.Grid)
			if !ok {
				t.Fatalf("%d users, %v: finder %T, want *spatial.Grid", c.n, args, in.Finder())
			}
			if same, err := in.Grid(); err != nil || same != g || g.N() != c.n {
				t.Errorf("%d users, %v: the grid does not index the instance's points", c.n, args)
			}
		}
	}
}

func TestGreedyAllFlag(t *testing.T) {
	js := genJSON(t)
	var out bytes.Buffer
	if err := Greedy(context.Background(), []string{"-all", "-k", "2", "-r", "1.5", "-exhaustive"},
		strings.NewReader(js), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"all algorithms", "greedy1", "greedy2", "greedy3", "greedy4", "exhaustive baseline"} {
		if !strings.Contains(text, want) {
			t.Errorf("-all output missing %q:\n%s", want, text)
		}
	}
}

func TestGreedyFromFiles(t *testing.T) {
	dir := t.TempDir()
	js := genJSON(t)
	jsonPath := filepath.Join(dir, "t.json")
	if err := os.WriteFile(jsonPath, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := TraceGen(context.Background(), []string{"-n", "10", "-format", "csv"}, &csvBuf); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(csvPath, csvBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{jsonPath, csvPath} {
		var out bytes.Buffer
		if err := Greedy(context.Background(), []string{"-trace", path, "-alg", "greedy3", "-k", "1"}, nil, &out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !strings.Contains(out.String(), "greedy3") {
			t.Errorf("%s: output missing algorithm name", path)
		}
	}
	var out bytes.Buffer
	if err := Greedy(context.Background(), []string{"-trace", filepath.Join(dir, "missing.json")}, nil, &out); err == nil {
		t.Error("missing file accepted")
	}
}

func TestGreedyRejects(t *testing.T) {
	js := genJSON(t)
	var out bytes.Buffer
	if err := Greedy(context.Background(), []string{"-alg", "bogus"}, strings.NewReader(js), &out); err == nil {
		t.Error("bad algorithm accepted")
	}
	if err := Greedy(context.Background(), []string{"-norm", "bogus"}, strings.NewReader(js), &out); err == nil {
		t.Error("bad norm accepted")
	}
	if err := Greedy(context.Background(), []string{"-r", "-2"}, strings.NewReader(js), &out); err == nil {
		t.Error("bad radius accepted")
	}
	// Gigantic exhaustive request must be refused, not attempted.
	var big bytes.Buffer
	if err := TraceGen(context.Background(), []string{"-n", "200", "-seed", "1"}, &big); err != nil {
		t.Fatal(err)
	}
	if err := Greedy(context.Background(), []string{"-k", "8", "-exhaustive", "-grid", "9"},
		strings.NewReader(big.String()), &out); err == nil || !strings.Contains(err.Error(), "enumerate") {
		t.Errorf("oversized exhaustive not refused: %v", err)
	}
}

func TestStationPipeline(t *testing.T) {
	js := genJSON(t, "-kind", "clustered")
	var out bytes.Buffer
	err := Station(context.Background(), []string{"-alg", "greedy2", "-k", "2", "-periods", "3"},
		strings.NewReader(js), &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"base station", "mean satisfaction", "fairness", "service frequency"} {
		if !strings.Contains(text, want) {
			t.Errorf("cdstation output missing %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "\n") < 6 {
		t.Error("cdstation output too short")
	}
}

func TestStationChurnMode(t *testing.T) {
	js := genJSON(t, "-n", "30")
	var out bytes.Buffer
	err := Station(context.Background(), []string{
		"-churn", "-arrivals", "3", "-departs", "2", "-periods", "4",
		"-warm", "-index", "grid", "-alg", "greedy3",
	}, strings.NewReader(js), &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"churn loop", "carry-over", "mean population", "incremental deltas", "4 full rebuilds"} {
		if !strings.Contains(text, want) {
			t.Errorf("churn output missing %q:\n%s", want, text)
		}
	}
}

func TestStationMultiStation(t *testing.T) {
	js := genJSON(t, "-kind", "clustered", "-n", "40")
	var out bytes.Buffer
	err := Station(context.Background(), []string{"-stations", "3", "-k", "1", "-periods", "2"},
		strings.NewReader(js), &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"3 stations", "aggregate satisfaction", "total budget 3"} {
		if !strings.Contains(text, want) {
			t.Errorf("multi-station output missing %q:\n%s", want, text)
		}
	}
	if err := Station(context.Background(), []string{"-stations", "2", "-assign", "bogus"},
		strings.NewReader(genJSON(t)), &out); err == nil {
		t.Error("bad assignment accepted")
	}
}

func TestTimelinePipeline(t *testing.T) {
	var tlOut bytes.Buffer
	if err := TraceGen(context.Background(), []string{"-n", "15", "-seed", "4", "-timeline", "3"}, &tlOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tlOut.String(), `"snapshots"`) {
		t.Fatalf("timeline json wrong: %.80s", tlOut.String())
	}
	var out bytes.Buffer
	if err := Station(context.Background(), []string{"-timeline", "-k", "2", "-r", "1.5"},
		strings.NewReader(tlOut.String()), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"timeline replay", "3 periods", "mean satisfaction"} {
		if !strings.Contains(text, want) {
			t.Errorf("timeline replay output missing %q:\n%s", want, text)
		}
	}
	// Timeline with CSV format is refused.
	var junk bytes.Buffer
	if err := TraceGen(context.Background(), []string{"-timeline", "2", "-format", "csv"}, &junk); err == nil {
		t.Error("timeline csv accepted")
	}
	// Timeline replay from a file, plus its error paths.
	dir := t.TempDir()
	path := filepath.Join(dir, "tl.json")
	if err := os.WriteFile(path, tlOut.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := Station(context.Background(), []string{"-timeline", "-trace", path, "-k", "1"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "timeline replay") {
		t.Error("file-based timeline replay failed")
	}
	if err := Station(context.Background(), []string{"-timeline", "-trace", filepath.Join(dir, "missing.json")}, nil, &out); err == nil {
		t.Error("missing timeline file accepted")
	}
	if err := Station(context.Background(), []string{"-timeline", "-alg", "bogus"}, strings.NewReader(tlOut.String()), &out); err == nil {
		t.Error("bad algorithm accepted in timeline mode")
	}
	if err := Station(context.Background(), []string{"-timeline", "-norm", "bogus"}, strings.NewReader(tlOut.String()), &out); err == nil {
		t.Error("bad norm accepted in timeline mode")
	}
	if err := Station(context.Background(), []string{"-timeline"}, strings.NewReader("{"), &out); err == nil {
		t.Error("bad timeline json accepted")
	}
}

func TestStationRejects(t *testing.T) {
	js := genJSON(t)
	var out bytes.Buffer
	if err := Station(context.Background(), []string{"-alg", "bogus"}, strings.NewReader(js), &out); err == nil {
		t.Error("bad algorithm accepted")
	}
	if err := Station(context.Background(), []string{"-periods", "0"}, strings.NewReader(js), &out); err == nil {
		t.Error("bad periods accepted")
	}
	if err := Station(context.Background(), []string{"-replace", "2"}, strings.NewReader(js), &out); err == nil {
		t.Error("bad replacement probability accepted")
	}
	for _, index := range []string{"quadtree", "kdtree"} {
		err := Station(context.Background(), []string{"-churn", "-index", index}, strings.NewReader(js), &out)
		if err == nil || !strings.Contains(err.Error(), "unknown index") {
			t.Errorf("churn index %s: err = %v, want unknown index", index, err)
		}
	}
}

// TestStationRejectsStrayFlags: a flag set on the command line that the
// selected mode does not read is an error naming the flag, and each such
// flag still works in a mode that reads it.
func TestStationRejectsStrayFlags(t *testing.T) {
	js := genJSON(t)
	var tl bytes.Buffer
	if err := TraceGen(context.Background(), []string{"-n", "15", "-seed", "4", "-timeline", "2"}, &tl); err != nil {
		t.Fatal(err)
	}
	modes := map[string]struct {
		args  []string
		input string
	}{"station": {nil, js}, "churn": {[]string{"-churn"}, js}, "timeline": {[]string{"-timeline"}, tl.String()}}
	run := func(mode string, flags []string) error {
		m := modes[mode]
		var out bytes.Buffer
		return Station(context.Background(), append(append([]string{}, m.args...), flags...), strings.NewReader(m.input), &out)
	}
	const station, stationOrChurn = "needs the default station mode", "needs the default station mode or -churn"
	for _, c := range []struct {
		mode  string
		flags []string
		want  string
	}{
		{"station", []string{"-index", "grid"}, "-index needs -churn"},
		{"station", []string{"-index", "kdtree"}, "-index needs -churn"},
		{"station", []string{"-warm"}, "-warm needs -churn"},
		{"station", []string{"-assign", "bogus"}, `unknown assignment "bogus"`},
		{"churn", []string{"-drift", "0.2"}, "-drift " + station},
		{"churn", []string{"-replace", "0.1"}, "-replace " + station},
		{"churn", []string{"-stations", "2"}, "-stations " + station},
		{"churn", []string{"-assign", "random"}, "-assign " + station},
		{"churn", []string{"-slots", "3"}, "-slots needs the default station mode or -timeline"},
		{"churn", []string{"-timeline"}, "-churn and -timeline select different modes"},
		{"timeline", []string{"-periods", "2"}, "-periods " + stationOrChurn},
		{"timeline", []string{"-arrivals", "1"}, "-arrivals " + stationOrChurn},
		{"timeline", []string{"-departs", "0.1"}, "-departs " + stationOrChurn},
		{"timeline", []string{"-seed", "3"}, "-seed " + stationOrChurn},
		{"timeline", []string{"-drift", "0.1"}, "-drift " + station},
		{"timeline", []string{"-warm"}, "-warm needs -churn"},
		{"timeline", []string{"-index", "none"}, "-index needs -churn"},
	} {
		if err := run(c.mode, c.flags); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s mode with %v: err = %v, want %q", c.mode, c.flags, err, c.want)
		}
	}
	for _, c := range []struct {
		mode  string
		flags []string
	}{
		{"station", []string{"-drift", "0.2", "-replace", "0.1", "-arrivals", "1", "-departs", "0.05", "-seed", "3", "-slots", "3", "-periods", "2"}},
		{"station", []string{"-stations", "2", "-assign", "random", "-periods", "2"}},
		{"churn", []string{"-warm", "-index", "grid", "-periods", "2", "-arrivals", "1", "-departs", "1", "-seed", "3"}},
		{"timeline", []string{"-slots", "3", "-churn=false"}},
	} {
		if err := run(c.mode, c.flags); err != nil {
			t.Errorf("%s mode with %v: %v", c.mode, c.flags, err)
		}
	}
}

// TestHelpListsEveryAlgorithm: the -alg help of cdgreedy and cdstation
// names every registry entry.
func TestHelpListsEveryAlgorithm(t *testing.T) {
	for name, tool := range map[string]func(context.Context, []string, io.Reader, io.Writer) error{
		"cdgreedy": Greedy, "cdstation": Station,
	} {
		var out bytes.Buffer
		if err := tool(context.Background(), []string{"-h"}, strings.NewReader(""), &out); !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h: err = %v, want flag.ErrHelp", name, err)
		}
		help := out.String()
		i := strings.Index(help, "algorithm: ")
		if i < 0 {
			t.Fatalf("%s -h has no algorithm list:\n%s", name, help)
		}
		line, _, _ := strings.Cut(help[i:], "\n")
		listed := map[string]bool{}
		for _, f := range strings.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '|' || r == ',' }) {
			listed[f] = true
		}
		for _, alg := range solver.Names() {
			if !listed[alg] {
				t.Errorf("%s -h does not list %q: %s", name, alg, line)
			}
		}
	}
}

func TestBenchListAndQuick(t *testing.T) {
	var out bytes.Buffer
	if err := Bench(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig2", "table1", "summary", "ablation-scale"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q", want)
		}
	}
	out.Reset()
	if err := Bench(context.Background(), []string{"-run", "fig2", "-plot"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "fig2-n10") || !strings.Contains(text, "approx1") {
		t.Errorf("fig2 output wrong:\n%.200s", text)
	}
	if !strings.Contains(text, "x: number of centers k") {
		t.Error("plot not rendered")
	}
	if err := Bench(context.Background(), []string{"-run", "bogus"}, &out); err == nil {
		t.Error("bad experiment id accepted")
	}
}

func TestBenchCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := Bench(context.Background(), []string{"-run", "fig2", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2-n10.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "x,") {
		t.Errorf("csv header wrong: %.40s", data)
	}
}

func TestBenchMarkdownOutput(t *testing.T) {
	dir := t.TempDir()
	mdPath := filepath.Join(dir, "report.md")
	var out bytes.Buffer
	if err := Bench(context.Background(), []string{"-run", "fig2", "-md", mdPath}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	md := string(data)
	for _, want := range []string{"## fig2", "| k | approx1 | approx2 |", "**fig2-n10"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%.300s", want, md)
		}
	}
}

func TestBenchQuickTable1(t *testing.T) {
	var out bytes.Buffer
	if err := Bench(context.Background(), []string{"-run", "table1", "-quick", "-seed", "42"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Greedy 4") {
		t.Errorf("table1 output wrong:\n%s", out.String())
	}
}

func TestBenchUnknownExperimentListsSortedCatalog(t *testing.T) {
	var out bytes.Buffer
	err := Bench(context.Background(), []string{"-run", "nope"}, &out)
	if err == nil {
		t.Fatal("unknown experiment id accepted")
	}
	ids := make([]string, 0)
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	// Same " | " catalog format as the solver registry's unknown-name error:
	// cdbench -run and cdgreedy -alg answer typos identically.
	if want := strings.Join(ids, " | "); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list the sorted experiment catalog %q", err, want)
	}
}

func TestGreedyUnknownAlgorithmListsSortedCatalog(t *testing.T) {
	var trOut, out bytes.Buffer
	if err := TraceGen(context.Background(), []string{"-n", "5"}, &trOut); err != nil {
		t.Fatal(err)
	}
	err := Greedy(context.Background(), []string{"-alg", "nope"}, strings.NewReader(trOut.String()), &out)
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if want := strings.Join(solver.Names(), " | "); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list the solver catalog %q", err, want)
	}
}

// TestGreedyTimeoutCleanExit: an expired -timeout is a clean exit, not an
// error — partial output plus the early-stop note, per the anytime contract.
func TestGreedyTimeoutCleanExit(t *testing.T) {
	var trOut, out bytes.Buffer
	if err := TraceGen(context.Background(), []string{"-n", "300", "-seed", "3"}, &trOut); err != nil {
		t.Fatal(err)
	}
	err := Greedy(context.Background(), []string{"-k", "8", "-timeout", "1ns"},
		strings.NewReader(trOut.String()), &out)
	if err != nil {
		t.Fatalf("timed-out run must exit cleanly, got %v", err)
	}
	if !strings.Contains(out.String(), "note: run stopped early") {
		t.Errorf("missing early-stop note in output:\n%s", out.String())
	}
}

func TestBenchTimeoutCleanExit(t *testing.T) {
	var out bytes.Buffer
	err := Bench(context.Background(), []string{"-run", "fig2", "-timeout", "1ns"}, &out)
	if err != nil {
		t.Fatalf("timed-out bench must exit cleanly, got %v", err)
	}
	if !strings.Contains(out.String(), "note: run stopped early") {
		t.Errorf("missing early-stop note in output:\n%s", out.String())
	}
}

func TestStationTimeoutCleanExit(t *testing.T) {
	var trOut, out bytes.Buffer
	if err := TraceGen(context.Background(), []string{"-n", "200", "-seed", "5"}, &trOut); err != nil {
		t.Fatal(err)
	}
	err := Station(context.Background(), []string{"-k", "4", "-periods", "50", "-timeout", "1ns"},
		strings.NewReader(trOut.String()), &out)
	if err != nil {
		t.Fatalf("timed-out station run must exit cleanly, got %v", err)
	}
	if !strings.Contains(out.String(), "note: run stopped early") {
		t.Errorf("missing early-stop note in output:\n%s", out.String())
	}
}

// TestGreedySharded: -shards routes the solve through the sharded pipeline
// (the reported algorithm is the composite name), -alg accepts the
// composite form directly, and a negative count is rejected.
func TestGreedySharded(t *testing.T) {
	js := genJSON(t, "-n", "60")
	var out bytes.Buffer
	if err := Greedy(context.Background(), []string{"-json", "-shards", "3", "-k", "2", "-r", "0.8"},
		strings.NewReader(js), &out); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Algorithm string    `json:"algorithm"`
		Gains     []float64 `json:"gains"`
	}
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid json: %v\n%s", err, out.String())
	}
	if parsed.Algorithm != "sharded(greedy2)" || len(parsed.Gains) != 2 {
		t.Fatalf("sharded run reported %+v", parsed)
	}

	out.Reset()
	if err := Greedy(context.Background(), []string{"-alg", "sharded(greedy2-lazy)", "-k", "2", "-r", "0.8"},
		strings.NewReader(genJSON(t, "-n", "60")), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sharded(greedy2-lazy)") {
		t.Errorf("table output missing the composite name:\n%s", out.String())
	}

	err := Greedy(context.Background(), []string{"-shards", "-2", "-k", "1"},
		strings.NewReader(genJSON(t)), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("negative -shards: err = %v", err)
	}
}

// TestGreedyShardingValidation: cdgreedy rejects out-of-range -shards/-halo
// before solving, with the exact error text /v1/solve answers with — both
// surfaces share solver.ValidateSharding, so they cannot drift.
func TestGreedyShardingValidation(t *testing.T) {
	cases := []struct {
		name         string
		args         []string
		shards, halo int
	}{
		{"negative shards", []string{"-shards", "-1", "-k", "1"}, -1, 0},
		{"below-range halo", []string{"-shards", "2", "-halo", "-2", "-k", "1"}, 2, -2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Greedy(context.Background(), tc.args, strings.NewReader(genJSON(t)), io.Discard)
			if err == nil {
				t.Fatal("out-of-range sharding flags accepted")
			}
			want := "cdgreedy: " + solver.ValidateSharding(tc.shards, tc.halo).Error()
			if err.Error() != want {
				t.Errorf("error %q, want %q", err, want)
			}
		})
	}
	// halo = -1 stays valid: it means "no halo", matching /v1/solve.
	if err := Greedy(context.Background(), []string{"-shards", "2", "-halo", "-1", "-k", "1"},
		strings.NewReader(genJSON(t)), io.Discard); err != nil {
		t.Fatalf("-halo -1 must stay accepted: %v", err)
	}
}

// TestGreedyNearLinear: -alg nearlinear runs end to end and -refine threads
// through to the solver options.
func TestGreedyNearLinear(t *testing.T) {
	js := genJSON(t, "-n", "80")
	var out bytes.Buffer
	if err := Greedy(context.Background(), []string{"-json", "-alg", "nearlinear", "-refine", "3", "-k", "2", "-r", "0.8"},
		strings.NewReader(js), &out); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Algorithm string    `json:"algorithm"`
		Gains     []float64 `json:"gains"`
		Total     float64   `json:"total"`
	}
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid json: %v\n%s", err, out.String())
	}
	if parsed.Algorithm != "nearlinear" || len(parsed.Gains) != 2 || parsed.Total <= 0 {
		t.Fatalf("nearlinear run reported %+v", parsed)
	}
}
