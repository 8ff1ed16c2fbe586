package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/solver"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	traced  bool
	conns   int    // client connections, and sender goroutines of the open loop
	outDir  string // where the traced run writes its span file
	out     io.Writer
	// onStack, when set, sees every stack the run starts; tests use it to
	// check that no listener outlives the run.
	onStack func(*stack)
}

// phase is one measured stretch of traffic with its resource deltas.
type phase struct {
	outs       []*outcome
	from, to   time.Time               // the measured traffic's start and end
	closed     []*outcome              // serve-mix's closed-loop phase
	closedFrom time.Time               // the closed loop's start
	closedFor  time.Duration           // the closed loop's time from its start to the last completion
	closedNet  time.Duration           // closedFor net of steal
	steal      float64                 // stolen share of the busy CPU time from..to
	used       usage                   // resource use over the measured traffic
	counts     counters                // /metrics deltas over the same traffic
	spans      *tracer                 // client-side spans (traced phase only)
	stats      map[string]*replayStats // by request ID, for the replayed requests
}

// bench is one run in progress.
type bench struct {
	runConfig
	st      *stack
	cl      *client
	plan    *mixPlan // serve-mix only
	planPos int
	chk     *checker
	steal   *stealMeter
}

// interval is a stretch of wall time.
type interval struct{ from, to time.Time }

// runBench drives one workload and returns its result. The stack is closed
// on every path out, including cancellation by a signal.
func runBench(ctx context.Context, cfg runConfig) (res *result, err error) {
	b := &bench{runConfig: cfg, chk: &checker{w: cfg.w, seed: cfg.seed}, steal: startStealMeter()}
	defer b.steal.close()
	defer func() {
		if b.cl != nil {
			b.cl.close()
		}
		if cerr := b.st.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	env := newEnvironment(cfg.w, cfg.seed, int(cfg.seconds), cfg.traced)
	fmt.Fprintf(cfg.out, "env %s\n", mustJSON(env))
	// stages records where the run's wall time went, for the report.
	var stages []string
	last := time.Now()
	stage := func(name string) {
		now := time.Now()
		stages = append(stages, fmt.Sprintf("%s %.1fs", name, now.Sub(last).Seconds()))
		last = now
	}

	setups, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	stage("setup")
	warm, err := b.warmup(ctx)
	if err != nil {
		return nil, err
	}
	stage("warm-up")
	a, err := b.measure(ctx, nil)
	if err != nil {
		return nil, err
	}
	stage("measure")
	rep := &report{w: cfg.w, warm: warm, a: a}
	if cfg.w.peers > 0 {
		rep.localMatch, err = b.localMatch(ctx, a)
		if err != nil {
			return nil, err
		}
		stage("local solve")
	}
	if cfg.traced {
		rt := newTracer()
		t, err := b.measure(ctx, rt)
		if err != nil {
			return nil, err
		}
		stage("traced")
		if err := b.replayAll(ctx, t, replayLimit(cfg.w)); err != nil {
			return nil, err
		}
		stage("replay")
		rep.t = t
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.w.name, cfg.seed))
		if err := rt.writeJSONL(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.spanFile = path
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, s := range setups {
		rep.setups = append(rep.setups, s.to.Sub(s.from).Seconds())
		rep.netSetups = append(rep.netSetups, b.steal.net(s.from, s.to).Seconds())
	}
	for _, p := range []*phase{a, rep.t} {
		b.netTimes(p)
	}
	rep.peakRSS = peakRSSMB()
	fmt.Fprintf(cfg.out, "stages %s\n", strings.Join(stages, ", "))
	return rep.print(cfg.out, cfg.traced), nil
}

// setup builds the stack setupReps times and answers one cold request on
// each; every stack but the last is closed again. The cold requests are not
// checked against an instance of the workload's size: the checker only
// sees measured requests.
func (b *bench) setup(ctx context.Context) ([]interval, error) {
	var out []interval
	cold := b.w
	cold.n = setupN
	for rep := 0; rep < setupReps; rep++ {
		if b.cl != nil {
			b.cl.close()
			b.cl = nil
		}
		if err := b.st.close(); err != nil {
			return nil, err
		}
		b.st = nil
		start := time.Now()
		st, err := startStack(ctx, b.w.peers)
		if err != nil {
			return nil, fmt.Errorf("start stack: %w", err)
		}
		b.st = st
		if b.onStack != nil {
			b.onStack(st)
		}
		b.cl = newClient(st.target().url, b.conns)
		b.cl.prefix = fmt.Sprintf("setup%d-", rep)
		r := &request{kind: kindSolve, stream: streamSetup, index: rep}
		r.body = solveBody(cold, b.seed, r.stream, r.index)
		o := b.cl.newOutcome(r, time.Now())
		b.cl.send(ctx, o)
		if o.ok() {
			out = append(out, interval{start, time.Now()})
		}
		(&checker{w: cold, seed: b.seed}).check(o)
		if o.err != nil {
			return nil, fmt.Errorf("set-up request: %w", o.err)
		}
	}
	b.cl.prefix = ""
	return out, nil
}

// warmup fills serve-mix's replay history and grows the heap; on the large
// workloads it sends one request. Its answers are checked but not timed.
func (b *bench) warmup(ctx context.Context) ([]*outcome, error) {
	b.cl.prefix = "warm-"
	defer func() { b.cl.prefix = "" }()
	if b.w.mix {
		b.plan = newMixPlan(b.w, b.seed)
		outs, _ := b.cl.closedLoop(ctx, b.nextMix(mixWarmup), b.conns, time.Hour)
		return b.checked(outs), ctx.Err()
	}
	outs := b.cl.serial(ctx, b.largeReq(streamWarm), time.Hour, 1)
	return b.checked(outs), ctx.Err()
}

// nextMix hands out the plan's next requests, at most limit of them when
// limit > 0 (the closed loop then stops at the first nil).
func (b *bench) nextMix(limit int) func() *request {
	var mu sync.Mutex
	handed := 0
	return func() *request {
		mu.Lock()
		defer mu.Unlock()
		if limit > 0 && handed == limit {
			return nil
		}
		handed++
		b.planPos++
		return b.plan.take(b.planPos - 1)
	}
}

func (b *bench) largeReq(stream int) func(int) *request {
	return func(i int) *request {
		return &request{kind: kindSolve, stream: stream, index: i, body: solveBody(b.w, b.seed, stream, i)}
	}
}

func (b *bench) checked(outs []*outcome) []*outcome {
	for _, o := range outs {
		b.chk.check(o)
	}
	return outs
}

// measure runs one measured phase: serve-mix's open loop then its
// closed-loop max_rps phase, or the large workloads' one-connection closed
// loop. With rt set, each request also gets client-side spans.
func (b *bench) measure(ctx context.Context, rt *tracer) (*phase, error) {
	p := &phase{spans: rt}
	dur := time.Duration(b.seconds * float64(time.Second))
	if b.w.mix {
		dur = time.Duration(b.seconds * mixOpenShare * float64(time.Second))
	}
	stream := streamTimed
	if rt != nil {
		stream = streamTraced
		b.cl.prefix = "traced-"
	}
	var at []float64
	first := b.planPos
	if b.w.mix {
		at = arrivals(b.seed, stream, mixRate, dur.Seconds())
		b.planPos += len(at)
		b.plan.prepare(b.planPos - 1)
	}
	runtime.GC()
	before, u0 := b.st.snapshot(), readUsage()
	p.from = time.Now()
	if b.w.mix {
		p.outs = b.cl.openLoop(ctx, func(i int) *request { return b.plan.take(first + i) }, at, b.conns)
	} else {
		p.outs = b.cl.serial(ctx, b.largeReq(stream), dur, 0)
	}
	p.to = time.Now()
	u1 := readUsage()
	p.counts = b.st.snapshot().sub(before)
	p.used = usage{cpu: u1.cpu - u0.cpu, alloc: u1.alloc - u0.alloc, gcCPU: u1.gcCPU - u0.gcCPU}
	if b.w.mix && rt == nil {
		closedDur := time.Duration(b.seconds * (1 - mixOpenShare) * float64(time.Second))
		b.plan.prepare(b.planPos + int(mixClosedPrep*closedDur.Seconds()))
		p.closedFrom = time.Now()
		p.closed, p.closedFor = b.cl.closedLoop(ctx, b.nextMix(0), b.conns, closedDur)
		b.checked(p.closed)
	}
	b.checked(p.outs)
	if rt != nil {
		for _, o := range p.outs {
			root := rt.record(0, o.id, "request", "", o.due, o.done)
			rt.record(root, o.id, "wait", "load", o.due, o.sent)
			rt.record(root, o.id, "http", "", o.sent, o.done)
		}
	}
	b.cl.prefix = ""
	return p, ctx.Err()
}

// netTimes takes steal out of a finished phase's wall-clock times. It runs
// once the run is over, when the samples cover every interval's window.
func (b *bench) netTimes(p *phase) {
	if p == nil {
		return
	}
	for _, outs := range [][]*outcome{p.outs, p.closed} {
		for _, o := range outs {
			if o.ok() {
				o.net = b.steal.net(o.due, o.done)
			}
		}
	}
	p.closedNet = b.steal.net(p.closedFrom, p.closedFrom.Add(p.closedFor))
	p.steal = b.steal.share(p.from, p.to)
}

// replayLimit caps how many traced requests a run replays: enough for
// stable medians without doubling the run's length.
func replayLimit(w workload) int {
	if w.mix {
		return 300
	}
	return 5
}

// replayAll replays the first limit completed requests of the traced phase
// through the layers in this process, after the phase, so the replays do
// not load the server while it is measured.
func (b *bench) replayAll(ctx context.Context, p *phase, limit int) error {
	rp := &replayer{rt: p.spans, cl: b.st.cluster}
	p.stats = map[string]*replayStats{}
	for _, o := range p.outs {
		if !o.ok() || len(p.stats) == limit {
			continue
		}
		o.r.body = b.w.body(b.seed, o.r)
		st, err := rp.replay(ctx, o)
		o.r.body = nil
		if err != nil {
			return err
		}
		if !st.match {
			o.err = errors.New("check: the in-process replay's answer differs from the served one")
		}
		p.stats[o.id] = st
	}
	return ctx.Err()
}

// localMatch solves the first measured instance in this process, outside
// the timed phase, and compares the centers with the cluster's answer.
func (b *bench) localMatch(ctx context.Context, a *phase) (bool, error) {
	for _, o := range a.outs {
		if !o.ok() || o.r.stream != streamTimed {
			continue
		}
		set := instance(b.seed, o.r.stream, o.r.index, b.w.n)
		res, err := localSolve(ctx, b.w, set, solver.Options{Seed: mix64(b.seed, o.r.stream, o.r.index)})
		if err != nil {
			return false, fmt.Errorf("local solve: %w", err)
		}
		if !sameCenters(res.Centers, o.resp.Centers) {
			o.err = errors.New("check: the cluster's centers differ from the in-process sharded solve")
			return false, nil
		}
		return true, nil
	}
	return false, errors.New("no completed request to compare with a local solve")
}
