package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/solver"
	"repro/internal/spatial"
	"repro/internal/vec"
)

// checker verifies answers against instances regenerated from the seed.
type checker struct {
	w    workload
	seed uint64
}

// check sets o.err when an answer fails a check: a solve needs at most k
// centers, no partial flag, and a total equal to the objective recomputed
// on the instance that was sent; a churn run needs every period and a
// complete summary.
func (c *checker) check(o *outcome) {
	if o.err != nil {
		return
	}
	if o.r.kind == kindChurn {
		s := o.summary
		if s.Partial || s.Periods != churnPeriods || len(o.periodAt) != churnPeriods {
			o.err = fmt.Errorf("check: churn summary %+v after %d period lines, want %d complete periods",
				*s, len(o.periodAt), churnPeriods)
		}
		return
	}
	r := o.resp
	if r.Partial {
		o.err = fmt.Errorf("check: partial answer (%d of %d centers)", len(r.Centers), c.w.k)
		return
	}
	if len(r.Centers) > c.w.k {
		o.err = fmt.Errorf("check: %d centers, want at most k = %d", len(r.Centers), c.w.k)
		return
	}
	in, err := reward.NewInstance(instance(c.seed, o.r.stream, o.r.index, c.w.n), norm.L2{}, c.w.radius)
	if err != nil {
		o.err = fmt.Errorf("check: %w", err)
		return
	}
	centers := make([]vec.V, len(r.Centers))
	for i, row := range r.Centers {
		centers[i] = vec.V(row)
	}
	if want := in.Objective(centers); math.Abs(r.Total-want) > core.SumTolerance || math.IsNaN(r.Total) {
		o.err = fmt.Errorf("check: total %v, objective of the returned centers %v", r.Total, want)
	}
}

// localSolve solves one instance in this process the way the handler does,
// for comparison with a served answer.
func localSolve(ctx context.Context, w workload, set *pointset.Set, opts solver.Options) (*core.Result, error) {
	in, err := reward.NewInstance(set, norm.L2{}, w.radius)
	if err != nil {
		return nil, err
	}
	if g, err := spatial.NewGrid(set.Points(), w.radius); err == nil {
		in.SetFinder(g)
	}
	alg, err := solver.New(w.solver, opts)
	if err != nil {
		return nil, err
	}
	return alg.Run(ctx, in, w.k)
}

// sameCenters reports whether two center lists are equal bit for bit.
func sameCenters(a []vec.V, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for d := range a[i] {
			if math.Float64bits(a[i][d]) != math.Float64bits(b[i][d]) {
				return false
			}
		}
	}
	return true
}
