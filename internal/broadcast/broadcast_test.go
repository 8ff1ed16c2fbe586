package broadcast

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/spatial"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func genTrace(t *testing.T, n int, kind trace.Kind) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.Config{
		N: n, Box: pointset.PaperBox2D(), Kind: kind,
		Scheme: pointset.RandomIntWeight,
	}, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func baseCfg() Config {
	return Config{K: 2, Radius: 1.5, Periods: 5, Seed: 7}
}

func greedyAlg() core.Algorithm { return core.LocalGreedy{} }

func TestRunBasic(t *testing.T) {
	tr := genTrace(t, 30, trace.Uniform)
	m, err := Run(context.Background(), tr, greedyAlg(), baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if m.Algorithm != "greedy2" {
		t.Errorf("algorithm name = %q", m.Algorithm)
	}
	if len(m.Periods) != 5 {
		t.Fatalf("periods = %d", len(m.Periods))
	}
	if m.MeanSatisfaction <= 0 || m.MeanSatisfaction > 1 {
		t.Errorf("mean satisfaction = %v", m.MeanSatisfaction)
	}
	if m.Fairness <= 0 || m.Fairness > 1+1e-9 {
		t.Errorf("fairness = %v", m.Fairness)
	}
	for _, p := range m.Periods {
		if p.Reward < 0 || p.Reward > p.MaxRwd+1e-9 {
			t.Errorf("period %d reward %v out of [0, %v]", p.Period, p.Reward, p.MaxRwd)
		}
		if len(p.Centers) != 2 {
			t.Errorf("period %d has %d centers", p.Period, len(p.Centers))
		}
	}
}

func TestRunValidation(t *testing.T) {
	tr := genTrace(t, 10, trace.Uniform)
	if _, err := Run(context.Background(), nil, greedyAlg(), baseCfg()); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := Run(context.Background(), tr, nil, baseCfg()); err == nil {
		t.Error("nil algorithm accepted")
	}
	bad := baseCfg()
	bad.K = 0
	if _, err := Run(context.Background(), tr, greedyAlg(), bad); err == nil {
		t.Error("K=0 accepted")
	}
	bad = baseCfg()
	bad.Radius = -1
	if _, err := Run(context.Background(), tr, greedyAlg(), bad); err == nil {
		t.Error("negative radius accepted")
	}
	bad = baseCfg()
	bad.Periods = 0
	if _, err := Run(context.Background(), tr, greedyAlg(), bad); err == nil {
		t.Error("0 periods accepted")
	}
	bad = baseCfg()
	bad.ChurnRate = 1.5
	if _, err := Run(context.Background(), tr, greedyAlg(), bad); err == nil {
		t.Error("churn > 1 accepted")
	}
	bad = baseCfg()
	bad.DriftSigma = -0.1
	if _, err := Run(context.Background(), tr, greedyAlg(), bad); err == nil {
		t.Error("negative drift accepted")
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	tr := genTrace(t, 20, trace.Uniform)
	snap := append([]float64{}, tr.Users[0].Interest...)
	cfg := baseCfg()
	cfg.DriftSigma = 0.3
	cfg.ChurnRate = 0.2
	if _, err := Run(context.Background(), tr, greedyAlg(), cfg); err != nil {
		t.Fatal(err)
	}
	if tr.Users[0].Interest[0] != snap[0] || tr.Users[0].Interest[1] != snap[1] {
		t.Fatal("Run mutated the input trace")
	}
}

func TestStaticVsAdaptive(t *testing.T) {
	// On a clustered population, an adaptive greedy schedule must beat a
	// static schedule stuck at arbitrary corners.
	tr := genTrace(t, 60, trace.Clustered)
	cfg := baseCfg()
	adaptive, err := Run(context.Background(), tr, greedyAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run(context.Background(), tr, core.Placement{Label: "static",
		Place: func(*reward.Instance, int) ([]vec.V, error) { return []vec.V{vec.Of(0, 0), vec.Of(4, 4)}, nil }}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.MeanSatisfaction <= static.MeanSatisfaction {
		t.Errorf("adaptive %v not above static %v",
			adaptive.MeanSatisfaction, static.MeanSatisfaction)
	}
	if static.Algorithm != "static" {
		t.Errorf("static name = %q", static.Algorithm)
	}
}

func TestDeterminism(t *testing.T) {
	tr := genTrace(t, 25, trace.Uniform)
	cfg := baseCfg()
	cfg.DriftSigma = 0.2
	cfg.ChurnRate = 0.1
	a, err := Run(context.Background(), tr, greedyAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), tr, greedyAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Periods {
		if math.Abs(a.Periods[i].Reward-b.Periods[i].Reward) > 1e-12 {
			t.Fatalf("period %d rewards differ across identical runs", i)
		}
	}
}

func TestChurnReplacesUsers(t *testing.T) {
	tr := genTrace(t, 20, trace.Uniform)
	cfg := baseCfg()
	cfg.Periods = 10
	cfg.ChurnRate = 0.5
	m, err := Run(context.Background(), tr, greedyAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Churned-in users get fresh IDs, so the fairness accounting must have
	// tracked more than the initial population.
	if m.Fairness <= 0 {
		t.Errorf("fairness = %v", m.Fairness)
	}
}

func TestArrivalsGrowPopulation(t *testing.T) {
	tr := genTrace(t, 10, trace.Uniform)
	cfg := baseCfg()
	cfg.Periods = 10
	cfg.ArrivalRate = 5
	m, err := Run(context.Background(), tr, greedyAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := m.Periods[0].MaxRwd, m.Periods[len(m.Periods)-1].MaxRwd
	if last <= first {
		t.Errorf("population did not grow: Σw %v -> %v", first, last)
	}
}

func TestDeparturesShrinkPopulation(t *testing.T) {
	tr := genTrace(t, 50, trace.Uniform)
	cfg := baseCfg()
	cfg.Periods = 10
	cfg.DepartRate = 0.3
	m, err := Run(context.Background(), tr, greedyAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := m.Periods[0].MaxRwd, m.Periods[len(m.Periods)-1].MaxRwd
	if last >= first {
		t.Errorf("population did not shrink: Σw %v -> %v", first, last)
	}
	// Population never empties even at extreme departure rates.
	cfg.DepartRate = 1
	if _, err := Run(context.Background(), tr, greedyAlg(), cfg); err != nil {
		t.Fatalf("full departure rate errored: %v", err)
	}
}

func TestArrivalDepartValidation(t *testing.T) {
	tr := genTrace(t, 10, trace.Uniform)
	bad := baseCfg()
	bad.ArrivalRate = -1
	if _, err := Run(context.Background(), tr, greedyAlg(), bad); err == nil {
		t.Error("negative arrival rate accepted")
	}
	bad = baseCfg()
	bad.DepartRate = 1.5
	if _, err := Run(context.Background(), tr, greedyAlg(), bad); err == nil {
		t.Error("depart rate > 1 accepted")
	}
}

func TestKSweepTradeoff(t *testing.T) {
	tr := genTrace(t, 40, trace.Uniform)
	cfg := baseCfg()
	cfg.Periods = 3
	ms, err := KSweep(context.Background(), tr, greedyAlg(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 {
		t.Fatalf("sweep len = %d", len(ms))
	}
	// Satisfaction is non-decreasing in k (greedy adds coverage).
	for i := 1; i < len(ms); i++ {
		if ms[i].MeanSatisfaction < ms[i-1].MeanSatisfaction-1e-9 {
			t.Errorf("satisfaction fell from k=%d to k=%d: %v -> %v",
				i, i+1, ms[i-1].MeanSatisfaction, ms[i].MeanSatisfaction)
		}
	}
	// Service frequency falls as k grows (paper's §III.A tradeoff) with a
	// fixed slot budget.
	cfg.SlotsPerPeriod = 6
	ms, err = KSweep(context.Background(), tr, greedyAlg(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].ServiceFrequency >= ms[i-1].ServiceFrequency {
			t.Errorf("service frequency did not fall: k=%d %v -> k=%d %v",
				i, ms[i-1].ServiceFrequency, i+1, ms[i].ServiceFrequency)
		}
	}
	if _, err := KSweep(context.Background(), tr, greedyAlg(), cfg, 0); err == nil {
		t.Error("kMax=0 accepted")
	}
}

func TestRunTimelineReplay(t *testing.T) {
	tr := genTrace(t, 25, trace.Uniform)
	tl, err := trace.RecordTimeline(tr, 4, 0.2, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg()
	a, err := RunTimeline(context.Background(), tl, greedyAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Periods) != 4 {
		t.Fatalf("periods = %d", len(a.Periods))
	}
	// Replays are bit-identical.
	b, err := RunTimeline(context.Background(), tl, greedyAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Periods {
		if a.Periods[i].Reward != b.Periods[i].Reward {
			t.Fatal("timeline replay not deterministic")
		}
	}
	// A zero-drift timeline matches the drift-free live simulation.
	still, err := trace.RecordTimeline(tr, 3, 0, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Periods = 3
	cfg.DriftSigma = 0
	cfg.ChurnRate = 0
	live, err := Run(context.Background(), tr, greedyAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := RunTimeline(context.Background(), still, greedyAlg(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if live.MeanSatisfaction != replay.MeanSatisfaction {
		t.Fatalf("live %v != replay %v on a static population",
			live.MeanSatisfaction, replay.MeanSatisfaction)
	}
}

func TestRunTimelineValidation(t *testing.T) {
	tr := genTrace(t, 10, trace.Uniform)
	tl, err := trace.RecordTimeline(tr, 2, 0.1, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg()
	if _, err := RunTimeline(context.Background(), nil, greedyAlg(), cfg); err == nil {
		t.Error("nil timeline accepted")
	}
	if _, err := RunTimeline(context.Background(), tl, nil, cfg); err == nil {
		t.Error("nil algorithm accepted")
	}
	bad := cfg
	bad.K = 0
	if _, err := RunTimeline(context.Background(), tl, greedyAlg(), bad); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestOneNormBroadcast(t *testing.T) {
	tr := genTrace(t, 20, trace.Uniform)
	cfg := baseCfg()
	cfg.Norm = norm.L1{}
	m, err := Run(context.Background(), tr, core.SimpleGreedy{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Algorithm != "greedy3" || m.MeanSatisfaction <= 0 {
		t.Errorf("L1 run wrong: %+v", m)
	}
}

// assertGrid fails unless in's finder is a grid over in's points at in's
// radius: Grid hands it back, and every point's query appends what a fresh
// grid's does.
func assertGrid(t *testing.T, in *reward.Instance) {
	t.Helper()
	g, ok := in.Finder().(*spatial.Grid)
	if !ok {
		t.Fatalf("finder %T, want *spatial.Grid", in.Finder())
	}
	pts := in.Set.Points()
	if same, err := in.Grid(); err != nil || same != g {
		t.Fatalf("Grid() = %p, %v, want the installed grid %p", same, err, g)
	}
	fresh, err := spatial.NewGrid(pts, in.Radius)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if got, want := g.AppendNear(nil, p), fresh.AppendNear(nil, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("point %d: grid appends %v, a fresh grid %v", i, got, want)
		}
	}
}

// indexSpy is greedy2 after checking the instance's finder: a grid over
// its points at its radius where spatial.Prunes says so, and no finder
// elsewhere. It counts the periods it checked and those it found indexed.
type indexSpy struct {
	t                *testing.T
	periods, indexed *int
}

func (s indexSpy) Name() string { return "index-spy" }

func (s indexSpy) Run(ctx context.Context, in *reward.Instance, k int) (*core.Result, error) {
	*s.periods++
	if spatial.Prunes(in.Set.Coords(), in.Set.Dim(), in.Radius) {
		assertGrid(s.t, in)
		*s.indexed++
	} else if f := in.Finder(); f != nil {
		s.t.Fatalf("%d users at r = %v: finder %T, want none", in.N(), in.Radius, f)
	}
	return greedyAlg().Run(ctx, in, k)
}

// TestPeriodsIndexedWherePrunes: every period Run, RunTimeline, RunMulti
// and KSweep solve carries a radius-r grid where spatial.Prunes says it
// pays for itself, and no finder elsewhere: 400 users at r = 0.5 are
// indexed in every period, 400 users at r = 2.5 (two cells a side) and 60
// users at r = 0.5 in none.
func TestPeriodsIndexedWherePrunes(t *testing.T) {
	for _, c := range []struct {
		n       int
		r       float64
		indexed bool
	}{{400, 0.5, true}, {400, 2.5, false}, {60, 0.5, false}} {
		tr := genTrace(t, c.n, trace.Uniform)
		cfg := baseCfg()
		cfg.Radius, cfg.Periods = c.r, 3
		cfg.DriftSigma, cfg.ChurnRate, cfg.ArrivalRate, cfg.DepartRate = 0.1, 0.1, 2, 0.05
		tl, err := trace.RecordTimeline(tr, 3, 0.1, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]func(core.Algorithm) error{
			"Run": func(a core.Algorithm) error { _, err := Run(context.Background(), tr, a, cfg); return err },
			"RunTimeline": func(a core.Algorithm) error {
				_, err := RunTimeline(context.Background(), tl, a, cfg)
				return err
			},
			"RunMulti": func(a core.Algorithm) error {
				_, err := RunMulti(context.Background(), tr, a, cfg, 2, RandomAssign)
				return err
			},
			"KSweep": func(a core.Algorithm) error { _, err := KSweep(context.Background(), tr, a, cfg, 2); return err },
		} {
			periods, indexed := 0, 0
			if err := run(indexSpy{t, &periods, &indexed}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := 0
			if c.indexed {
				want = periods
			}
			if periods == 0 || indexed != want {
				t.Errorf("n = %d, r = %v, %s: %d of %d periods indexed, want %d", c.n, c.r, name, indexed, periods, want)
			}
		}
	}
}
