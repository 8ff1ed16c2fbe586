// Package experiments contains one driver per table and figure in the
// paper's evaluation (§VI), plus the ablations DESIGN.md calls out. Each
// driver regenerates the corresponding artifact's rows/series from scratch
// (workload generation → algorithms → baselines → aggregation) and returns
// them as renderable tables and figures.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/report"
	"repro/internal/reward"
	"repro/internal/solver"
)

// RunConfig tunes an experiment run.
type RunConfig struct {
	// Seed makes the whole experiment reproducible.
	Seed uint64
	// Trials is the number of randomized instances per configuration cell
	// (default 5).
	Trials int
	// Workers bounds parallelism; <= 0 uses all CPUs.
	Workers int
	// Quick shrinks the run for smoke tests: 1 trial, no candidate
	// enrichment, no polishing.
	Quick bool
	// Obs receives telemetry from instrumented stages; nil (the default)
	// runs uninstrumented. Drivers that build their instances through
	// newInstance attach it there, so the reward counters and every
	// algorithm run on those instances report to it.
	Obs obs.Collector
}

func (c RunConfig) trials() int {
	if c.Quick {
		return 1
	}
	if c.Trials <= 0 {
		return 5
	}
	return c.Trials
}

// exhaustiveGridPer is the baseline candidate-lattice resolution per
// dimension (0 in quick mode).
func (c RunConfig) exhaustiveGridPer(dim int) int {
	if c.Quick {
		return 0
	}
	if dim >= 3 {
		return 5 // 125 extra candidates in 3-D is already generous
	}
	return 5
}

func (c RunConfig) polish() bool { return !c.Quick }

// Output is everything an experiment produces: renderable tables, figures,
// and free-form notes. Render flattens it for the CLI.
type Output struct {
	Tables  []*report.Table
	Figures []*report.Figure
	Notes   []string
}

// Render concatenates all artifacts in a stable order.
func (o *Output) Render() string {
	var b strings.Builder
	for _, t := range o.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	for _, f := range o.Figures {
		b.WriteString(f.Render())
		b.WriteByte('\n')
	}
	for _, n := range o.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is a registered paper artifact reproduction. Run observes ctx
// cooperatively: a cancelled experiment stops between units of work and
// returns ctx.Err() (drivers do not assemble partial tables — an artifact is
// either reproduced or not).
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, cfg RunConfig) (*Output, error)
}

// Registry returns all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig2", Title: "Fig. 2: approximation-ratio bounds, 10- and 40-node", Run: RunFig2},
		{ID: "fig3", Title: "Fig. 3: worked 40-node example, center placement per algorithm", Run: RunFig3},
		{ID: "table1", Title: "Table I: per-round coverage reward of greedy 2/3/4", Run: RunTable1},
		{ID: "fig4", Title: "Fig. 4: 2-D, 2-norm, random weights — ratio vs exhaustive", Run: figRatio("fig4", norm.L2{}, pointset.RandomIntWeight)},
		{ID: "fig5", Title: "Fig. 5: 2-D, 2-norm, same weight — ratio vs exhaustive", Run: figRatio("fig5", norm.L2{}, pointset.UnitWeight)},
		{ID: "fig6", Title: "Fig. 6: 2-D, 1-norm, random weights — ratio vs exhaustive", Run: figRatio("fig6", norm.L1{}, pointset.RandomIntWeight)},
		{ID: "fig7", Title: "Fig. 7: 2-D, 1-norm, same weight — ratio vs exhaustive", Run: figRatio("fig7", norm.L1{}, pointset.UnitWeight)},
		{ID: "fig8", Title: "Fig. 8: 3-D, 1-norm, random weights — total rewards", Run: figReward("fig8", pointset.RandomIntWeight)},
		{ID: "fig9", Title: "Fig. 9: 3-D, 1-norm, same weight — total rewards", Run: figReward("fig9", pointset.UnitWeight)},
		{ID: "summary", Title: "§VI.B summary: average approximation ratio per algorithm", Run: RunSummary},
		{ID: "tradeoff", Title: "§III.A k-vs-service-frequency tradeoff (broadcast substrate)", Run: RunTradeoff},
		{ID: "ablation-exhaustive", Title: "Ablation: exhaustive baseline candidate enrichment and polishing", Run: RunAblationExhaustive},
		{ID: "ablation-ballmode", Title: "Ablation: greedy 4 enclosing-ball construction (exact vs projection)", Run: RunAblationBallMode},
		{ID: "ablation-inner", Title: "Ablation: round-based heuristic inner-solver fidelity", Run: RunAblationInner},
		{ID: "ablation-scale", Title: "Ablation: lazy evaluation and spatial indexing beyond paper scale", Run: RunAblationScale},
		{ID: "nearlinear-scale", Title: "Extension: near-linear grid solver — quality gap vs exact greedy and speedup", Run: RunNearLinearScale},
		{ID: "validate", Title: "Empirical stress-test of Theorems 1 and 2 on random instances", Run: RunValidate},
		{ID: "multistation", Title: "Extension: multi-station deployments under a fixed broadcast budget", Run: RunMultistation},
		{ID: "kcurve", Title: "Extension: total reward as a function of k (diminishing returns)", Run: RunKCurve},
		{ID: "complexity", Title: "Empirical check of the Theorem 3/4 complexity claims", Run: RunComplexity},
		{ID: "baselines", Title: "Extension: greedy vs reward-blind placement (k-means/k-medians/random)", Run: RunBaselines},
		{ID: "radiuscurve", Title: "Extension: total reward as a continuous function of the radius", Run: RunRadiusCurve},
		{ID: "weightskew", Title: "Extension: sensitivity to the weight scheme's skew", Run: RunWeightSkew},
		{ID: "churn", Title: "Extension: dynamic-instance churn — per-period re-solves, cold vs warm-started", Run: RunChurnExperiment},
	}
}

// ByID resolves an experiment. Unknown ids report the sorted catalog in the
// same canonical format the solver registry uses (solver.CatalogError), so
// `cdbench -run` and `cdgreedy -alg` answer a typo identically.
func ByID(id string) (Experiment, error) {
	ids := make([]string, 0)
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	return Experiment{}, solver.CatalogError("experiments", "id", id, ids)
}

// Algorithms under test, in the paper's naming, resolved through the solver
// registry (DESIGN.md §3.1, §8) so the experiment drivers and the CLI agree
// on constructors. Workers is pinned to 1: the drivers parallelize across
// trials, not inside algorithms.
func paperAlgorithms() []core.Algorithm {
	names := solver.PaperNames()
	algs := make([]core.Algorithm, 0, len(names))
	for _, name := range names {
		// Seed stays zero: instance randomness lives in the workload
		// generators (cfg.Seed), and the historical driver behavior used the
		// algorithms' zero-seed defaults.
		a, err := solver.New(name, solver.Options{Workers: 1})
		if err != nil {
			panic(err) // registry and PaperNames ship together; a miss is a programming error
		}
		algs = append(algs, a)
	}
	return algs
}

// configGrid is the paper's (k, r) sweep: "different number of centers
// (2, 4) and different radius of the centers (1, 1.5, 2)".
type kr struct {
	K int
	R float64
}

func configGrid() []kr {
	return []kr{{2, 1}, {2, 1.5}, {2, 2}, {4, 1}, {4, 1.5}, {4, 2}}
}

func (c kr) String() string { return fmt.Sprintf("k=%d,r=%g", c.K, c.R) }

// newInstance builds a reward instance from freshly generated points, with
// the run's collector attached.
func (c RunConfig) newInstance(set *pointset.Set, nm norm.Norm, r float64) (*reward.Instance, error) {
	in, err := reward.NewInstance(set, nm, r)
	if err != nil {
		return nil, err
	}
	in.SetCollector(c.Obs)
	return in, nil
}

// countingNote is the note a timing driver adds when a collector is
// attached: its per-evaluation counting runs inside the timed solves.
func (c RunConfig) countingNote() []string {
	if !obs.Active(c.Obs) {
		return nil
	}
	return []string{"The times include the attached collector's per-evaluation counting (cdbench -metrics)."}
}
