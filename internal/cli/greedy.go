package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	v1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/exhaustive"
	"repro/internal/report"
	"repro/internal/reward"
	"repro/internal/solver"
	"repro/internal/vec"
)

// centersToFloats flattens center vectors for JSON output.
func centersToFloats(cs []vec.V) [][]float64 {
	out := make([][]float64, len(cs))
	for i, c := range cs {
		out[i] = append([]float64{}, c...)
	}
	return out
}

// Greedy implements cdgreedy: run one algorithm on a trace, optionally with
// the exhaustive baseline and ratio. Cancellation (ctx or -timeout) is a
// clean exit: the partial result computed so far is printed with a note.
func Greedy(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("cdgreedy", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		tracePath = fs.String("trace", "-", "trace file (JSON or CSV by extension; '-' reads JSON from stdin)")
		algName   = fs.String("alg", "greedy2", "algorithm: "+strings.Join(solver.Names(), " | ")+", or sharded(<name>)")
		all       = fs.Bool("all", false, "run all four paper algorithms and compare")
		shards    = fs.Int("shards", 0, "split the solve into this many spatial shards solved in parallel and merged (0 = single-shot)")
		halo      = fs.Int("halo", 0, "sharded boundary-halo width in grid-cell rings (0 = default of 1, -1 = none)")
		refine    = fs.Int("refine", 0, "nearlinear per-center local-refinement rounds (0 = default, negative = none)")
		k         = fs.Int("k", 2, "number of broadcasts")
		r         = fs.Float64("r", 1, "coverage radius")
		normName  = fs.String("norm", "l2", "interest-distance norm: l1 | l2 | linf")
		exh       = fs.Bool("exhaustive", false, "also compute the exhaustive baseline and ratio")
		gridPer   = fs.Int("grid", 5, "exhaustive candidate-lattice resolution per dimension (0 = points only)")
		asJSON    = fs.Bool("json", false, "emit the result as JSON instead of a table")
		metrics   = fs.String("metrics", "", "write a telemetry snapshot (counters, timers) as JSON to this file ('-' = stdout)")
		events    = fs.String("events", "", "stream telemetry events as JSONL to this file: one span per stage (each round a core.round span) and SEB calls")
		timeout   = fs.Duration("timeout", 0, "overall deadline; on expiry the partial result is printed and the tool exits cleanly (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	tr, err := ReadTrace(*tracePath, stdin)
	if err != nil {
		return err
	}
	set, err := tr.ToSet()
	if err != nil {
		return err
	}
	// The flags form the request POST /v1/solve decodes, resolved by the
	// same Resolve, so the tool accepts exactly what the server accepts.
	req := v1.SolveRequest{Instance: set, Radius: *r, Norm: *normName, Solver: *algName, K: *k,
		Options: v1.SolveOptions{Shards: *shards, Halo: *halo, Refine: *refine}}
	nm, opts, e := req.Resolve()
	if e != nil {
		return fmt.Errorf("cdgreedy: %s", e.Message)
	}
	tel, err := newTelemetry(*metrics, *events)
	if err != nil {
		return err
	}
	in, err := reward.NewIndexed(set, nm, *r, tel.Collector())
	if err != nil {
		return err
	}
	alg, err := solver.New(req.Solver, opts)
	if err != nil {
		return err
	}
	var res *core.Result
	cancelled := false
	if *all && !*asJSON {
		tb := report.NewTable(fmt.Sprintf("all algorithms on %d users (%s, k=%d, r=%g)", set.Len(), nm.Name(), *k, *r),
			"algorithm", "total", "% of Σw")
		for _, name := range solver.PaperNames() {
			a, err := solver.New(name, solver.Options{})
			if err != nil {
				return err
			}
			rr, err := a.Run(ctx, in, *k)
			if err != nil {
				if rr == nil || ctx.Err() == nil {
					return err
				}
				cancelled = true
			}
			tb.AddRow(rr.Algorithm, rr.Total, 100*rr.Total/set.TotalWeight())
			if res == nil || rr.Total > res.Total {
				res = rr
			}
			if cancelled {
				break
			}
		}
		fmt.Fprint(stdout, tb.Render())
	} else if res, err = alg.Run(ctx, in, *k); err != nil {
		if res == nil || ctx.Err() == nil {
			return err
		}
		cancelled = true
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(struct {
			Algorithm string      `json:"algorithm"`
			K         int         `json:"k"`
			Radius    float64     `json:"radius"`
			Norm      string      `json:"norm"`
			Centers   [][]float64 `json:"centers"`
			Gains     []float64   `json:"gains"`
			Total     float64     `json:"total"`
			MaxReward float64     `json:"max_reward"`
			Cancelled bool        `json:"cancelled,omitempty"`
		}{
			Algorithm: res.Algorithm,
			K:         *k,
			Radius:    *r,
			Norm:      nm.Name(),
			Centers:   centersToFloats(res.Centers),
			Gains:     res.Gains,
			Total:     res.Total,
			MaxReward: set.TotalWeight(),
			Cancelled: cancelled,
		})
		if err != nil {
			return err
		}
		return tel.Close(stdout)
	}
	if !*all {
		tb := report.NewTable(fmt.Sprintf("%s on %d users (%s, k=%d, r=%g)", res.Algorithm, set.Len(), nm.Name(), *k, *r),
			"round", "center", "gain")
		for j, c := range res.Centers {
			tb.AddRow(j+1, describeCenter(c, tr.Keywords), res.Gains[j])
		}
		fmt.Fprint(stdout, tb.Render())
		fmt.Fprintf(stdout, "total reward: %.4f of at most %.4f (%.2f%% of Σw)\n",
			res.Total, set.TotalWeight(), 100*res.Total/set.TotalWeight())
	}

	if *exh && ctx.Err() == nil {
		box := tr.Box()
		exReq := v1.SolveRequest{Instance: set, Radius: *r, Norm: *normName, Solver: "exhaustive", K: *k,
			Options: v1.SolveOptions{GridPer: *gridPer, BoxLo: box.Lo, BoxHi: box.Hi, Polish: true}}
		_, exOpts, e := exReq.Resolve()
		if e != nil {
			return fmt.Errorf("cdgreedy: %s", e.Message)
		}
		gridN := 0
		if *gridPer > 0 {
			gridN = 1
			for i := 0; i < set.Dim(); i++ {
				gridN *= *gridPer
			}
		}
		combos := exhaustive.Combinations(set.Len()+gridN, *k)
		if combos > 5e8 {
			return fmt.Errorf("cdgreedy: exhaustive search would enumerate %.3g subsets; reduce -k or -grid", combos)
		}
		ex, err := exhaustive.Solve(ctx, in, *k, exOpts)
		if err != nil {
			if ex == nil || ctx.Err() == nil {
				return err
			}
			cancelled = true
		}
		if ex.Total > 0 && res != nil {
			fmt.Fprintf(stdout, "exhaustive baseline: %.4f — approximation ratio %.4f\n", ex.Total, res.Total/ex.Total)
		}
	}
	if cancelled {
		cancelNote(stdout, ctx.Err())
	}
	return tel.Close(stdout)
}
