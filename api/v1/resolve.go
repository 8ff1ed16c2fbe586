package v1

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/shard"
	"repro/internal/solver"
	"repro/internal/vec"
)

// maxDeadlineMS is the largest DeadlineMS a request may carry: the longest
// deadline a time.Duration can hold, in whole milliseconds.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// Resolve checks a solve request and fills its defaults in place. It is
// the one place a solve request is checked: POST /v1/solve and cdgreedy
// both call it, so they accept exactly the same requests. A fault is a 400
// *APIError carrying its Code*.
//
// The checks read the options as sent. After them an empty norm becomes
// l2 and an empty solver greedy2, and shards, halo and refine take the
// values their zeros stand for (solver.EffectiveShards,
// shard.DefaultHaloRings, core.DefaultRefineRounds), so a default and its
// explicit spelling are one request. The returned options are what
// solver.New takes, with the warm start and box converted; Remote is left
// to the caller.
func (r *SolveRequest) Resolve() (norm.Norm, solver.Options, *APIError) {
	nm, e := resolve(&r.Norm, &r.Solver, r.Radius, r.Instance, r.K, r.DeadlineMS)
	if e != nil {
		return nil, solver.Options{}, e
	}
	o := &r.Options
	dim := r.Instance.Dim()
	var warm []vec.V
	for i, row := range o.WarmStart {
		if len(row) != dim {
			return nil, solver.Options{}, badf(CodeDimMismatch,
				"warm_start[%d] has dim %d, want %d", i, len(row), dim)
		}
		warm = append(warm, vec.V(append([]float64{}, row...)))
	}
	box, e := resolveBox(o.BoxLo, o.BoxHi, dim)
	if e != nil {
		return nil, solver.Options{}, e
	}
	if err := solver.ValidateSharding(o.Shards, o.Halo); err != nil {
		return nil, solver.Options{}, badf(CodeBadRequest, "%v", err)
	}
	// min keeps 2·Halo+1 from overflowing; any Halo past MaxCells is
	// rejected for every dim >= 1 anyway.
	if o.Halo > 0 && powAbove(2*min(o.Halo, MaxCells)+1, dim, MaxCells) {
		return nil, solver.Options{}, badf(CodeBadRequest,
			"halo = %d, want (2·halo+1)^%d <= %d", o.Halo, dim, MaxCells)
	}
	if o.GridPer > 0 && powAbove(o.GridPer, dim, MaxCells) {
		return nil, solver.Options{}, badf(CodeBadRequest,
			"grid_per = %d, want grid_per^%d <= %d", o.GridPer, dim, MaxCells)
	}
	if r.CacheControl != "" && r.CacheControl != CacheControlBypass {
		return nil, solver.Options{}, badf(CodeBadRequest,
			"cache_control = %q, want \"\" or %q", r.CacheControl, CacheControlBypass)
	}

	o.Shards = solver.EffectiveShards(r.Solver, o.Shards)
	if o.Halo == 0 {
		o.Halo = shard.DefaultHaloRings
	}
	if o.Refine == 0 {
		o.Refine = core.DefaultRefineRounds
	}
	opts := o.SolverOptions()
	opts.WarmStart = warm
	opts.Box = box
	return nm, opts, nil
}

// Resolve checks a churn request and fills its norm and solver defaults in
// place, as SolveRequest.Resolve does for the fields the two share. The
// returned box, where arrivals are drawn, defaults to the instance's
// bounds. The churn loop's own fields (periods, rates, index) are checked
// by its configuration.
func (r *ChurnRequest) Resolve() (norm.Norm, pointset.Box, *APIError) {
	nm, e := resolve(&r.Norm, &r.Solver, r.Radius, r.Instance, r.K, r.DeadlineMS)
	if e != nil {
		return nil, pointset.Box{}, e
	}
	box, e := resolveBox(r.BoxLo, r.BoxHi, r.Instance.Dim())
	if e != nil {
		return nil, pointset.Box{}, e
	}
	if len(box.Lo) == 0 {
		box.Lo, box.Hi = r.Instance.Bounds()
	}
	return nm, box, nil
}

// resolve is the step both requests share. It checks the norm, the solver,
// the radius, the instance, k and the deadline, in that order, and names
// the default norm and solver in place.
func resolve(normName, solverName *string, radius float64, inst *pointset.Set, k int, deadlineMS int64) (norm.Norm, *APIError) {
	if *normName == "" {
		*normName = "l2"
	}
	nm, err := norm.ByName(*normName)
	if err != nil {
		return nil, badf(CodeBadNorm, "unknown norm %q (have: l1 | l2 | linf)", *normName)
	}
	if *solverName == "" {
		*solverName = "greedy2"
	}
	if err := solver.Check(*solverName); err != nil {
		return nil, badf(CodeUnknownSolver, "%v", err)
	}
	if radius <= 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return nil, badf(CodeBadRadius, "radius = %v, want positive and finite", radius)
	}
	if inst == nil || inst.Len() == 0 {
		return nil, badf(CodeBadInstance, "request has no instance")
	}
	// With k = n, one center per user already covers every user fully, so
	// a larger k cannot raise the optimum; it would only hold a worker for
	// rounds that gain nothing.
	if k < 1 || k > inst.Len() {
		return nil, badf(CodeBadK, "k = %d, want 1 <= k <= %d (the instance's user count)", k, inst.Len())
	}
	if deadlineMS < 0 || deadlineMS > maxDeadlineMS {
		return nil, badf(CodeBadRequest, "deadline_ms = %d, want 0 <= deadline_ms <= %d", deadlineMS, maxDeadlineMS)
	}
	return nm, nil
}

// resolveBox converts box_lo/box_hi to a pointset.Box, the zero Box when
// both are absent.
func resolveBox(lo, hi []float64, dim int) (pointset.Box, *APIError) {
	if len(lo) == 0 && len(hi) == 0 {
		return pointset.Box{}, nil
	}
	if len(lo) != dim || len(hi) != dim {
		return pointset.Box{}, badf(CodeDimMismatch, "box_lo/box_hi have dims %d/%d, want %d", len(lo), len(hi), dim)
	}
	b := pointset.Box{Lo: vec.V(append([]float64{}, lo...)), Hi: vec.V(append([]float64{}, hi...))}
	if !b.Valid() {
		return pointset.Box{}, badf(CodeBadRequest, "box_lo must be <= box_hi component-wise")
	}
	return b, nil
}

// badf builds the 400 a request fault is answered with.
func badf(code, format string, args ...any) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: code, Message: fmt.Sprintf(format, args...)}
}

// powAbove reports whether base^exp > limit, for base >= 1, without
// overflowing.
func powAbove(base, exp, limit int) bool {
	p := 1
	for i := 0; i < exp; i++ {
		if p > limit/base {
			return true
		}
		p *= base
	}
	return false
}
