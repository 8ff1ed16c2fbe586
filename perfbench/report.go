package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/solver"
)

// result is the one JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef describes one reported metric. The end-to-end and per-layer
// tables below are the source of BENCHMARK.json's metric lists (a test
// keeps the two in step); moves and on record which end-to-end metric a
// per-layer metric should move, and on which workload.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEnd are the metrics of the untraced run, defined on every workload.
// Bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "solve_p50_ms", unit: "ms", better: "lower"},
	{name: "max_rps", unit: "1/s", better: "higher"},
	{name: "reward_share", unit: "ratio", better: "higher"},
	{name: "cpu_ms_per_req", unit: "ms", better: "lower"},
	{name: "alloc_mb_per_req", unit: "MB", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not run
// reads 0 there.
var perLayer = []metricDef{
	{"load.late_p99_ms", "ms", "lower", "nothing: the run is invalid when it nears solve_p50_ms", "serve-mix"},
	{"load.conn_wait_p99_ms", "ms", "lower", "solve_p99_ms", "serve-mix"},
	{"v1.decode_ms", "ms", "lower", "solve_p50_ms", "nearlinear-large, solve-large, serve-mix"},
	{"v1.decode_mb", "MB", "lower", "alloc_mb_per_req", "nearlinear-large, solve-large, serve-mix"},
	{"v1.encode_ms", "ms", "lower", "solve_p50_ms", "cluster-large"},
	{"v1.wire_mb", "MB", "lower", "solve_p50_ms", "cluster-large"},
	{"serve.overhead_ms", "ms", "lower", "solve_p50_ms, hit_p50_ms", "serve-mix"},
	{"cache.fingerprint_ms", "ms", "lower", "hit_p50_ms", "serve-mix"},
	{"cache.hit_ratio", "ratio", "higher", "max_rps, solve_p50_ms", "serve-mix"},
	{"cache.collapsed", "count", "higher", "solve_p99_ms", "serve-mix"},
	{"spatial.grid_ms", "ms", "lower", "solve_p50_ms", "nearlinear-large, solve-large"},
	{"spatial.grid_mb", "MB", "lower", "alloc_mb_per_req", "nearlinear-large, solve-large"},
	{"reward.gain_evals", "count", "lower", "cpu_ms_per_req", "solve-large, serve-mix"},
	{"shard.partition_ms", "ms", "lower", "solve_p50_ms", "solve-large, cluster-large"},
	{"shard.partition_mb", "MB", "lower", "alloc_mb_per_req", "solve-large, cluster-large"},
	{"shard.halo_share", "ratio", "lower", "cpu_ms_per_req", "solve-large"},
	{"core.solve_ms", "ms", "lower", "solve_p50_ms", "serve-mix"},
	{"core.part_solve_ms", "ms", "lower", "cpu_ms_per_req", "solve-large"},
	{"core.part_solve_max_ms", "ms", "lower", "solve_p50_ms", "solve-large"},
	{"core.part_solve_mb", "MB", "lower", "alloc_mb_per_req", "solve-large"},
	{"core.part_imbalance", "ratio", "lower", "solve_p50_ms", "solve-large"},
	{"core.merge_ms", "ms", "lower", "solve_p50_ms", "solve-large"},
	{"core.merge_repops", "count", "lower", "core.merge_ms", "solve-large"},
	{"core.lazy_repops", "count", "lower", "core.part_solve_ms", "solve-large"},
	{"core.round_ms", "ms", "lower", "solve_p50_ms", "nearlinear-large"},
	{"nearlinear.grid_snap_ms", "ms", "lower", "solve_p50_ms", "nearlinear-large"},
	{"nearlinear.seed_ms", "ms", "lower", "solve_p50_ms", "nearlinear-large"},
	{"nearlinear.refine_ms", "ms", "lower", "solve_p50_ms", "nearlinear-large"},
	{"nearlinear.refine_accept_share", "ratio", "higher", "nearlinear.refine_ms", "nearlinear-large"},
	{"cluster.forward_ms", "ms", "lower", "solve_p50_ms", "cluster-large"},
	{"cluster.forward_max_ms", "ms", "lower", "solve_p50_ms", "cluster-large"},
	{"cluster.fallback_share", "ratio", "lower", "solve_p50_ms, cpu_ms_per_req", "cluster-large"},
	{"churn.period_ms", "ms", "lower", "churn_p50_ms", "serve-mix"},
	{"churn.deltas", "count", "lower", "churn_p50_ms", "serve-mix"},
	{"gc.cpu_share", "ratio", "lower", "cpu_ms_per_req, solve_p99_ms", "all"},
	{"self.load_ms", "ms", "lower", "solve_p50_ms", "serve-mix"},
	{"self.api_v1_ms", "ms", "lower", "solve_p50_ms", "nearlinear-large, cluster-large"},
	{"self.cache_ms", "ms", "lower", "hit_p50_ms", "serve-mix"},
	{"self.reward_ms", "ms", "lower", "solve_p50_ms", "solve-large"},
	{"self.spatial_ms", "ms", "lower", "solve_p50_ms", "nearlinear-large"},
	{"self.shard_ms", "ms", "lower", "solve_p50_ms", "solve-large, cluster-large"},
	{"self.core_ms", "ms", "lower", "solve_p50_ms, cpu_ms_per_req", "solve-large, serve-mix"},
	{"self.clusterd_ms", "ms", "lower", "solve_p50_ms", "cluster-large"},
	{"self.broadcast_ms", "ms", "lower", "churn_p50_ms", "serve-mix"},
	{"trace.unaccounted_ms", "ms", "lower", "solve_p50_ms", "all"},
	{"trace.overhead_ms", "ms", "lower", "nothing: traced minus untraced solve_p50_ms", "all"},
}

// layers names the span layers, in the order the self-time table prints
// them, with the metric each one's self time is reported under.
var layers = []struct{ layer, metric string }{
	{"load", "self.load_ms"},
	{"api/v1", "self.api_v1_ms"},
	{"cache", "self.cache_ms"},
	{"reward", "self.reward_ms"},
	{"spatial", "self.spatial_ms"},
	{"shard", "self.shard_ms"},
	{"core", "self.core_ms"},
	{"clusterd", "self.clusterd_ms"},
	{"broadcast", "self.broadcast_ms"},
}

// report turns a run's phases into metrics.
type report struct {
	w          workload
	setups     []float64 // seconds each set-up took
	netSetups  []float64 // the same, net of steal
	warm       []*outcome
	a, t       *phase // the untraced phase, and the traced one when tracing
	localMatch bool
	peakRSS    float64
	spanFile   string
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

const mb = 1e6

// solves returns the completed solve outcomes (fresh and replayed).
func solves(outs []*outcome) []*outcome {
	var out []*outcome
	for _, o := range outs {
		if o.ok() && o.r.kind != kindChurn {
			out = append(out, o)
		}
	}
	return out
}

// latencies returns the latencies, net of steal, of the completed
// requests keep selects.
func latencies(outs []*outcome, keep func(*outcome) bool) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.ok() && keep(o) {
			xs = append(xs, ms(o.net))
		}
	}
	return xs
}

// wallLatencies is latencies before steal is taken out.
func wallLatencies(outs []*outcome, keep func(*outcome) bool) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.ok() && keep(o) {
			xs = append(xs, ms(o.latency()))
		}
	}
	return xs
}

func isSolve(o *outcome) bool { return o.r.kind != kindChurn }
func isHit(o *outcome) bool   { return o.cached() }
func isChurn(o *outcome) bool { return o.r.kind == kindChurn }

func countOK(outs []*outcome) int {
	n := 0
	for _, o := range outs {
		if o.ok() {
			n++
		}
	}
	return n
}

// line is one printed metric.
type line struct {
	name, unit string
	value      float64
	note       string
}

// endToEndLines computes every end-to-end metric the workload has, the
// ones BENCHMARK.json gates first.
func (r *report) endToEndLines() []line {
	a := r.a
	all := append(append([]*outcome(nil), a.outs...), a.closed...)
	solveLat := latencies(a.outs, isSolve)
	ok := countOK(a.outs)
	var rps, wallRPS, cpu, alloc float64
	if r.w.mix {
		rps = float64(countOK(a.closed)) / a.closedNet.Seconds()
		wallRPS = float64(countOK(a.closed)) / a.closedFor.Seconds()
		cpu = ms(a.used.cpu) / float64(ok)
		alloc = float64(a.used.alloc) / mb / float64(ok)
	} else {
		var busy, wallBusy, cpuSum time.Duration
		var allocSum uint64
		for _, o := range a.outs {
			if o.ok() {
				busy += o.net
				wallBusy += o.done.Sub(o.sent)
				cpuSum += o.cpu
				allocSum += o.alloc
			}
		}
		rps = float64(ok) / busy.Seconds()
		wallRPS = float64(ok) / wallBusy.Seconds()
		cpu = ms(cpuSum) / float64(ok)
		alloc = float64(allocSum) / mb / float64(ok)
	}
	var shares []float64
	for _, o := range solves(all) {
		shares = append(shares, o.resp.Total/o.resp.MaxReward)
	}
	attempted, failed := tally(append(append([]*outcome(nil), r.warm...), all...))
	lines := []line{
		{"setup_s", "s", median(r.netSetups), fmt.Sprintf("median of %d set-ups: %.4g; wall %.4g", len(r.netSetups), r.netSetups, median(r.setups))},
		{"solve_p50_ms", "ms", p50(a), fmt.Sprintf("n=%d, wall %.4g", len(solveLat), median(wallLatencies(a.outs, isSolve)))},
		{"max_rps", "1/s", rps, fmt.Sprintf("wall %.4g", wallRPS)},
		{"reward_share", "ratio", mean(shares), fmt.Sprintf("n=%d", len(shares))},
		{"cpu_ms_per_req", "ms", cpu, ""},
		{"alloc_mb_per_req", "MB", alloc, ""},
		{"peak_rss_mb", "MB", r.peakRSS, ""},
		{"fail_share", "ratio", float64(failed) / float64(attempted), fmt.Sprintf("%d of %d", failed, attempted)},
	}
	if r.w.mix {
		t := tailOf(solveLat)
		name := "solve_p99_ms"
		if t.Q != 99 {
			name = fmt.Sprintf("solve_p%.1f_ms", t.Q)
		}
		lines = append(lines,
			line{name, "ms", t.Value, fmt.Sprintf("n=%d, %d beyond", t.N, t.Beyond)},
			line{"hit_p50_ms", "ms", median(latencies(a.outs, isHit)), fmt.Sprintf("n=%d", len(latencies(a.outs, isHit)))},
			line{"churn_p50_ms", "ms", median(latencies(a.outs, isChurn)), fmt.Sprintf("n=%d", len(latencies(a.outs, isChurn)))},
		)
	}
	return append(lines, line{"steal_share", "ratio", a.steal, "stolen share of the busy CPU time while measuring; taken out of every time above"})
}

// p50 is a phase's solve_p50_ms.
func p50(p *phase) float64 { return median(latencies(p.outs, isSolve)) }

func tally(outs []*outcome) (attempted, failed int) {
	for _, o := range outs {
		attempted++
		if !o.ok() {
			failed++
		}
	}
	return attempted, failed
}

// perLayerValues computes every per-layer metric: counts from the /metrics
// deltas of the untraced phase, times from the traced phase's spans.
func (r *report) perLayerValues() map[string]float64 {
	v := map[string]float64{}
	a, c := r.a, r.a.counts

	late, wait := a.waits()
	v["load.late_p99_ms"] = percentile(late, 99)
	v["load.conn_wait_p99_ms"] = percentile(wait, 99)

	sv := solves(a.outs)
	var overhead []float64
	var wire float64
	fresh, churnPeriods := 0, 0
	for _, o := range sv {
		wire += float64(o.reqBytes + o.rspBytes)
		if !o.cached() {
			fresh++
			overhead = append(overhead, ms(o.latency())-float64(o.resp.WallNS)/1e6)
		}
	}
	var deltas []float64
	for _, o := range a.outs {
		if o.ok() && isChurn(o) {
			churnPeriods += o.summary.Periods
			deltas = append(deltas, float64(o.summary.IncrementalDeltas))
		}
	}
	v["serve.overhead_ms"] = median(overhead)
	v["v1.wire_mb"] = (wire + float64(c.fwdBytes)) / mb / float64(len(sv))
	v["cache.hit_ratio"] = c.ratio("cache.hits", "cache.misses")
	v["cache.collapsed"] = c.per("cache.collapsed", float64(len(sv))/1000)
	executed := float64(fresh + churnPeriods)
	v["reward.gain_evals"] = c.per("reward.gain_evals", executed)
	v["core.lazy_repops"] = c.per("core.lazy_heap_repops", executed)
	v["core.round_ms"] = c.perMS("core.round_ns", executed)
	sharded := 0.0
	if solver.EffectiveShards(r.w.solver, 0) > 1 {
		sharded = float64(fresh)
	}
	v["shard.halo_share"] = c.per("shard.halo_points", sharded*float64(r.w.n))
	v["core.merge_repops"] = c.per("shard.merge_repops", sharded)
	v["nearlinear.grid_snap_ms"] = c.perMS("nearlinear.grid_snap_ns", float64(fresh))
	v["nearlinear.seed_ms"] = c.perMS("nearlinear.seed_ns", float64(fresh))
	v["nearlinear.refine_ms"] = c.perMS("nearlinear.refine_ns", float64(fresh))
	v["nearlinear.refine_accept_share"] = c.per("nearlinear.refine_accepts", float64(c.n["nearlinear.refine_steps"]))
	v["cluster.fallback_share"] = c.ratio("cluster.fallbacks", "cluster.forwards")
	v["churn.deltas"] = zeroNaN(mean(deltas))
	v["gc.cpu_share"] = a.used.gcCPU / a.used.cpu.Seconds()

	for k, x := range r.spanValues() {
		v[k] = x
	}
	for k, x := range v {
		v[k] = zeroNaN(x)
	}
	return v
}

// waits returns, in ms, how late each request that found a free sender was
// sent, and how long every request waited for a sender.
func (p *phase) waits() (late, connWait []float64) {
	for _, o := range p.outs {
		if o.freeConn {
			late = append(late, ms(o.sent.Sub(o.due)))
		}
		connWait = append(connWait, ms(o.picked.Sub(o.due)))
	}
	return late, connWait
}

func zeroNaN(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// spanValues computes the span-based per-layer metrics of the traced phase.
func (r *report) spanValues() map[string]float64 {
	t := r.t
	spans := t.spans.snapshot()
	self := selfTimes(spans)
	byReq := map[string][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	col := map[string][]float64{}
	add := func(name string, x float64) { col[name] = append(col[name], x) }
	for _, o := range t.outs {
		if !o.ok() || t.stats[o.id] == nil {
			continue // only replayed requests have layer spans
		}
		ss := byReq[o.id]
		named := func(name string) []span {
			var out []span
			for _, s := range ss {
				if s.Name == name {
					out = append(out, s)
				}
			}
			return out
		}
		layerSelf := map[string]int64{}
		for _, s := range ss {
			if s.Layer != "" {
				layerSelf[s.Layer] += self[s.ID]
			}
		}
		for _, l := range layers {
			if x, ok := layerSelf[l.layer]; ok {
				add(l.metric, float64(x)/1e6)
			}
		}
		var replayWall, wait int64
		for _, s := range ss {
			switch {
			case s.Name == "replay" && s.Parent == 0:
				replayWall = covered(s.Start, s.End, kids[s.ID])
			case s.Name == "wait":
				wait = s.dur()
			}
		}
		add("trace.unaccounted_ms", ms(o.latency())-float64(wait+replayWall)/1e6)

		if isChurn(o) {
			var periods []float64
			for _, s := range named("period") {
				periods = append(periods, float64(s.dur())/1e6)
			}
			add("churn.period_ms", median(periods))
			continue
		}
		if d := named("decode"); len(d) == 1 {
			add("v1.decode_ms", float64(d[0].dur())/1e6)
			add("v1.decode_mb", float64(d[0].Alloc)/mb)
		}
		var enc int64
		for _, s := range named("encode") {
			enc += s.dur()
		}
		add("v1.encode_ms", float64(enc)/1e6)
		if f := named("fingerprint"); len(f) == 1 {
			add("cache.fingerprint_ms", float64(f[0].dur())/1e6)
		}
		if o.cached() {
			continue
		}
		if g := named("new_grid"); len(g) == 1 {
			add("spatial.grid_ms", float64(g[0].dur())/1e6)
			add("spatial.grid_mb", float64(g[0].Alloc)/mb)
		}
		sol := named("solve")
		if len(sol) != 1 {
			continue
		}
		add("core.solve_ms", float64(sol[0].dur())/1e6)
		if p := named("partition"); len(p) == 1 {
			add("shard.partition_ms", float64(p[0].dur())/1e6)
			add("shard.partition_mb", float64(p[0].Alloc)/mb)
			add("core.merge_ms", float64(self[sol[0].ID])/1e6)
			add("core.part_solve_mb", float64(t.stats[o.id].partAlloc)/mb)
		}
		if parts := named("part_solve"); len(parts) > 0 {
			durs := spanMS(parts)
			add("core.part_solve_ms", sum(durs))
			add("core.part_solve_max_ms", slicesMax(durs))
			add("core.part_imbalance", slicesMax(durs)/mean(durs))
		}
		if fw := named("forward"); len(fw) > 0 {
			durs := spanMS(fw)
			add("cluster.forward_ms", median(durs))
			add("cluster.forward_max_ms", slicesMax(durs))
		}
	}
	out := map[string]float64{}
	for k, xs := range col {
		out[k] = median(xs)
	}
	out["trace.overhead_ms"] = p50(t) - p50(r.a)
	return out
}

func spanMS(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

func slicesMax(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// print writes the human-readable report and the result line, and returns
// the result.
func (r *report) print(w io.Writer, traced bool) *result {
	all := append(append(append([]*outcome(nil), r.warm...), r.a.outs...), r.a.closed...)
	if r.t != nil {
		all = append(all, r.t.outs...)
	}
	attempted, failed := tally(all)
	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	res.Correct = failed == 0 && (r.w.peers == 0 || r.localMatch)
	for _, o := range all {
		if o.err != nil {
			fmt.Fprintf(w, "failed %s %s: %v\n", o.r.kind, o.id, o.err)
		}
	}
	if r.w.peers > 0 {
		fmt.Fprintf(w, "check cluster centers equal the in-process sharded solve: %v\n", r.localMatch)
	}

	e2e := r.endToEndLines()
	fmt.Fprintf(w, "end-to-end (untraced) %s\n", r.w.name)
	for _, l := range e2e {
		fmt.Fprintf(w, "  %-24s %14.6g %-5s %s\n", l.name, l.value, l.unit, l.note)
	}
	// The open loop times requests from their due time, so a generator that
	// falls behind still shows in the latency; the flag says when it did.
	if r.w.mix {
		late, _ := r.a.waits()
		lateP99, solveP50 := percentile(late, 99), p50(r.a)
		valid := "valid"
		if lateP99 >= 0.75*solveP50 {
			valid = "INVALID: the generator fell behind"
		}
		fmt.Fprintf(w, "load.late_p99_ms %.4g against solve_p50_ms %.4g: %s\n", lateP99, solveP50, valid)
	}
	if !traced {
		for _, d := range endToEnd {
			for _, l := range e2e {
				if l.name == d.name {
					// NaN (nothing completed) cannot be encoded; such a run
					// has failed requests and is not correct anyway.
					res.Metrics[d.name] = metric{Value: zeroNaN(l.value), Unit: d.unit}
				}
			}
		}
	} else {
		v := r.perLayerValues()
		fmt.Fprintf(w, "per-layer (traced) %s  spans: %s\n", r.w.name, r.spanFile)
		fmt.Fprintf(w, "  %-32s %14s %-5s %-34s %s\n", "metric", "value", "unit", "should move", "on")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-32s %14.6g %-5s %-34s %s\n", d.name, v[d.name], d.unit, d.moves, d.on)
			res.Metrics[d.name] = metric{Value: v[d.name], Unit: d.unit}
		}
	}
	fmt.Fprintf(w, "%s\n", mustJSON(res))
	return res
}
