package experiments

import (
	"context"
	"sort"
	"strings"
	"testing"
)

func quickCfg() RunConfig {
	return RunConfig{Seed: 1, Quick: true}
}

func TestRegistryUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, want := range []string{"fig2", "fig3", "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "summary"} {
		if !seen[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig2")
	if err != nil || e.ID != "fig2" {
		t.Fatalf("ByID(fig2) = %v, %v", e.ID, err)
	}
	if _, err := ByID("nope"); err == nil || !strings.Contains(err.Error(), "fig2") {
		t.Errorf("unknown id error should list valid ids: %v", err)
	}
}

func TestByIDUnknownListsSortedIDs(t *testing.T) {
	ids := make([]string, 0)
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	_, err := ByID("nope")
	if err == nil {
		t.Fatal("ByID(nope) succeeded")
	}
	// The catalog is joined with " | ", the same canonical format
	// solver.CatalogError gives the solver registry's unknown-name error.
	if want := strings.Join(ids, " | "); !strings.Contains(err.Error(), want) {
		t.Errorf("unknown id error %q does not carry the sorted catalog %q", err, want)
	}
	if !strings.Contains(err.Error(), `experiments: unknown id "nope"`) {
		t.Errorf("unknown id error %q is not in the canonical catalog-error format", err)
	}
}

func TestFig2(t *testing.T) {
	out, err := RunFig2(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 2 || len(out.Tables) != 2 {
		t.Fatalf("fig2 artifacts: %d figures %d tables", len(out.Figures), len(out.Tables))
	}
	text := out.Render()
	for _, want := range []string{"fig2-n10", "fig2-n40", "approx1", "approx2"} {
		if !strings.Contains(text, want) {
			t.Errorf("fig2 output missing %q", want)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	out, err := RunTable1(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 1 || out.Tables[0].NumRows() != 3 {
		t.Fatalf("table1 shape wrong")
	}
	text := out.Render()
	for _, want := range []string{"Greedy 2", "Greedy 3", "Greedy 4", "Total"} {
		if !strings.Contains(text, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestFig3RendersScatters(t *testing.T) {
	out, err := RunFig3(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	text := out.Render()
	// 12 panels: 4 rounds × 3 algorithms, labelled (a)..(l) like the paper.
	if got := strings.Count(text, "legend:"); got != 12 {
		t.Errorf("fig3 rendered %d panels, want 12", got)
	}
	for _, want := range []string{"Fig. 3(a)", "Fig. 3(l)", "after round 4"} {
		if !strings.Contains(text, want) {
			t.Errorf("fig3 missing %q", want)
		}
	}
	if !strings.Contains(text, "@") {
		t.Error("fig3 has no centers plotted")
	}
}

func TestRatioFigureQuick(t *testing.T) {
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 2 { // n=10 and n=40 panels
		t.Fatalf("fig4 panels = %d", len(out.Figures))
	}
	for _, f := range out.Figures {
		if len(f.Series) != 6 { // 4 ratios + 2 bounds
			t.Fatalf("fig4 series = %d", len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.X) != 6 {
				t.Fatalf("series %q has %d points, want 6", s.Name, len(s.X))
			}
			if strings.HasPrefix(s.Name, "ratio ") {
				for i, y := range s.Y {
					if y <= 0 || y > 1.25 {
						t.Errorf("series %q point %d = %v outside plausible ratio range", s.Name, i, y)
					}
				}
			}
		}
	}
}

func TestRewardFigureQuick(t *testing.T) {
	e, err := ByID("fig9")
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 2 || len(out.Tables) != 2 {
		t.Fatalf("fig9 artifacts wrong: %d figs %d tables", len(out.Figures), len(out.Tables))
	}
	for _, f := range out.Figures {
		for _, s := range f.Series {
			for i, y := range s.Y {
				if y < 0 {
					t.Errorf("negative reward in %q[%d]: %v", s.Name, i, y)
				}
			}
		}
	}
}

func TestSummaryQuick(t *testing.T) {
	out, err := RunSummary(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 1 || out.Tables[0].NumRows() != 4 {
		t.Fatal("summary shape wrong")
	}
	text := out.Render()
	for _, want := range []string{"greedy1", "greedy2", "greedy3", "greedy4", "overall"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestTradeoffQuick(t *testing.T) {
	out, err := RunTradeoff(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 1 || len(out.Figures) != 1 {
		t.Fatal("tradeoff artifacts wrong")
	}
	if out.Tables[0].NumRows() != 3 { // quick kMax = 3
		t.Errorf("tradeoff rows = %d", out.Tables[0].NumRows())
	}
}

func TestValidateQuick(t *testing.T) {
	out, err := RunValidate(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 1 || out.Tables[0].NumRows() != 2 {
		t.Fatal("validate artifacts wrong")
	}
	text := out.Render()
	if !strings.Contains(text, "Theorem 2") || !strings.Contains(text, "Theorem 1") {
		t.Errorf("validate output wrong:\n%s", text)
	}
}

func TestAblationsQuick(t *testing.T) {
	for _, id := range []string{"ablation-exhaustive", "ablation-ballmode", "ablation-inner", "ablation-scale"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(context.Background(), quickCfg())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out.Tables) == 0 {
			t.Errorf("%s produced no tables", id)
		}
	}
}

func TestExtensionExperimentsQuick(t *testing.T) {
	for _, id := range []string{"multistation", "kcurve", "complexity", "baselines", "radiuscurve", "weightskew", "churn"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(context.Background(), quickCfg())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out.Tables) == 0 {
			t.Errorf("%s produced no tables", id)
		}
	}
}

func TestConfigGrid(t *testing.T) {
	g := configGrid()
	if len(g) != 6 {
		t.Fatalf("grid len = %d", len(g))
	}
	if g[0].String() != "k=2,r=1" || g[5].String() != "k=4,r=2" {
		t.Errorf("grid order wrong: %v .. %v", g[0], g[5])
	}
}

func TestRunConfigDefaults(t *testing.T) {
	if (RunConfig{}).trials() != 5 {
		t.Error("default trials != 5")
	}
	if (RunConfig{Quick: true}).trials() != 1 {
		t.Error("quick trials != 1")
	}
	if (RunConfig{Trials: 9}).trials() != 9 {
		t.Error("explicit trials ignored")
	}
	if (RunConfig{Quick: true}).exhaustiveGridPer(2) != 0 {
		t.Error("quick grid != 0")
	}
	if (RunConfig{}).exhaustiveGridPer(2) != 5 {
		t.Error("full grid != 5")
	}
	if (RunConfig{}).polish() != true || (RunConfig{Quick: true}).polish() != false {
		t.Error("polish defaults wrong")
	}
}
