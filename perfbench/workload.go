package main

import (
	"encoding/json"
	"fmt"
	"sync"

	v1 "repro/api/v1"
	"repro/internal/pointset"
	"repro/internal/xrand"
)

// workload is one traffic shape the benchmark drives through the stack.
type workload struct {
	name string
	// n, k, radius and solver shape every /v1/solve body; the norm is l2.
	n      int
	k      int
	radius float64
	solver string
	// mix selects the serve-mix shape: an open-loop Poisson phase of fresh
	// solves, byte-identical replays and churn runs, then a closed-loop phase
	// over conns connections. Otherwise the workload is a closed loop over
	// one connection in which every request is a fresh instance.
	mix bool
	// peers is how many in-process peers the target's Cluster forwards
	// shards to (0: no cluster).
	peers int
}

// Set-up: a run builds the stack setupReps times and times each from
// construction to the answer to one cold request, of setupN users in the
// workload's solver, so that setup_s measures starting the stack and its
// cold paths rather than one more large solve. setup_s is the median. One
// set-up takes 10 to 30 ms, and single set-ups of one run differ by up to
// a half, so a run makes enough of them for a steady median.
const (
	setupReps = 31
	setupN    = 1000
)

// Serve-mix request shape. The open-loop rate is frozen as an absolute
// number, so that later changes are compared at the same offered load: 40
// req/s is about a fifth of the max_rps this workload measured when the
// benchmark was defined (170 to 240 req/s on a 2-vCPU x86-64 VM, as busy as
// its host was). A higher rate lets the queue for the nproc connections
// amplify every slowdown of the VM: at 60% (104 req/s) the median latency
// swung by 27% between runs, and at 70 req/s a run in which the hypervisor
// stole 48% of the CPU had a median 35% above the others even net of steal.
// The closed loop's bodies are built before it is timed for mixClosedPrep
// requests per second, most of what it reaches; building the rest while
// timed keeps the generator's memory below the server's.
const (
	mixRate       = 40.0  // requests per second offered in the open loop
	mixClosedPrep = 150.0 // closed-loop requests per second with bodies built before timing
	mixFresh      = 0.65  // share of fresh /v1/solve instances
	mixReplay     = 0.30  // share of byte-identical replays of an earlier solve body
	mixWarmup     = 150   // closed-loop requests before timing
	mixOpenShare  = 0.7   // share of --seconds spent in the open loop; the rest measures max_rps
	churnPeriods  = 3
	churnArrivals = 20 // mean arrivals per period
	churnDeparts  = 20 // mean departures per period
)

// largeR gives about 78 users per coverage disk at n = 100,000 in the 4x4
// box, the same density as r = 0.02 at n = 1,000,000.
const largeR = 0.0632

var workloads = []workload{
	{name: "serve-mix", n: 1000, k: 8, radius: 0.25, solver: "greedy2-lazy", mix: true},
	{name: "solve-large", n: 100_000, k: 32, radius: largeR, solver: "sharded(greedy2-lazy)"},
	{name: "cluster-large", n: 100_000, k: 32, radius: largeR, solver: "sharded(greedy2-lazy)", peers: 2},
	{name: "nearlinear-large", n: 100_000, k: 32, radius: largeR, solver: "nearlinear"},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Instance streams: every instance is a pure function of (seed, stream,
// index), so the large workloads send the same instances for the same seed
// and a check can regenerate any instance instead of keeping it.
const (
	streamSetup  = 1 // cold requests that end each set-up
	streamWarm   = 2 // warm-up requests of the large workloads
	streamTimed  = 3 // the measured requests (and the serve-mix fresh solves)
	streamTraced = 4 // the traced phase's requests
	streamChurn  = 5 // serve-mix churn runs
)

// mix64 is one SplitMix64 step over the combined inputs.
func mix64(seed uint64, stream, index int) uint64 {
	z := seed ^ uint64(stream)*0xbf58476d1ce4e5b9 ^ uint64(index)*0x94d049bb133111eb
	return xrand.New(z).Uint64()
}

// instance draws the paper's setup: n users uniform in the 4x4 box with
// random integer weights 1..5.
func instance(seed uint64, stream, index, n int) *pointset.Set {
	set, err := pointset.GenUniform(n, pointset.PaperBox2D(), pointset.RandomIntWeight,
		xrand.New(mix64(seed, stream, index)))
	if err != nil {
		panic(err) // n > 0 and the paper box are valid by construction
	}
	return set
}

// reqKind is what a request asks the server to do.
type reqKind int

const (
	kindSolve  reqKind = iota // a fresh instance: the cache cannot answer it
	kindReplay                // byte-identical copy of an earlier solve body
	kindChurn                 // a /v1/churn run
)

func (k reqKind) String() string {
	return [...]string{"solve", "replay", "churn"}[k]
}

// request is one generated request. For a replay, stream and index name the
// original solve's instance.
type request struct {
	kind   reqKind
	stream int
	index  int
	body   []byte
}

func (r *request) path() string {
	if r.kind == kindChurn {
		return "/v1/churn"
	}
	return "/v1/solve"
}

func solveBody(w workload, seed uint64, stream, index int) []byte {
	return mustJSON(v1.SolveRequest{
		Instance: instance(seed, stream, index, w.n),
		Radius:   w.radius,
		Norm:     "l2",
		Solver:   w.solver,
		K:        w.k,
		Options:  v1.SolveOptions{Seed: mix64(seed, stream, index)},
	})
}

func churnBody(w workload, seed uint64, index int) []byte {
	return mustJSON(v1.ChurnRequest{
		Instance:    instance(seed, streamChurn, index, w.n),
		Radius:      w.radius,
		Norm:        "l2",
		Solver:      w.solver,
		K:           w.k,
		Periods:     churnPeriods,
		ArrivalRate: churnArrivals,
		DepartRate:  churnDeparts,
		Seed:        mix64(seed, streamChurn, index),
		WarmStart:   true,
	})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err)) // plain data types only
	}
	return b
}

// mixPlan is serve-mix's one deterministic request sequence: warm-up, open
// loop and closed loop all take from it in order, and element i depends
// only on the seed and i. A phase prepares its elements before it is timed,
// since building a body costs about a quarter of what the server spends on
// the request; sent bodies are dropped and only the last mixHistory fresh
// ones are kept, as the replay history.
type mixPlan struct {
	w    workload
	seed uint64

	mu      sync.Mutex
	rng     *xrand.Rand
	made    int              // elements generated so far
	pending map[int]*request // generated, not yet taken
	history []*request       // ring of the last mixHistory fresh solves
	fresh   int              // fresh solves generated so far
	churns  int
}

// mixHistory bounds the replay history. A replay of a body that left it
// long ago would be a cache hit all the same.
const mixHistory = 256

func newMixPlan(w workload, seed uint64) *mixPlan {
	return &mixPlan{w: w, seed: seed, rng: xrand.New(mix64(seed, 0, 0)), pending: map[int]*request{}}
}

// prepare generates the sequence up to element i.
func (p *mixPlan) prepare(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.prepareLocked(i)
}

func (p *mixPlan) prepareLocked(i int) {
	for p.made <= i {
		p.pending[p.made] = p.nextLocked()
		p.made++
	}
}

// take returns element i, generating the sequence up to it if prepare has
// not. Each element is taken once.
func (p *mixPlan) take(i int) *request {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.prepareLocked(i)
	r := p.pending[i]
	delete(p.pending, i)
	return r
}

func (p *mixPlan) nextLocked() *request {
	u := p.rng.Float64()
	switch {
	case u < mixFresh || p.fresh == 0:
		r := &request{kind: kindSolve, stream: streamTimed, index: p.fresh}
		r.body = solveBody(p.w, p.seed, r.stream, r.index)
		if len(p.history) < mixHistory {
			p.history = append(p.history, r)
		} else {
			p.history[p.fresh%mixHistory] = r
		}
		p.fresh++
		// The history keeps its own copy of the request, since a sent
		// request drops its body.
		cp := *r
		return &cp
	case u < mixFresh+mixReplay:
		orig := p.history[p.rng.Intn(len(p.history))]
		return &request{kind: kindReplay, stream: orig.stream, index: orig.index, body: orig.body}
	default:
		r := &request{kind: kindChurn, stream: streamChurn, index: p.churns}
		r.body = churnBody(p.w, p.seed, r.index)
		p.churns++
		return r
	}
}

// body rebuilds a sent request's body from the seed.
func (w workload) body(seed uint64, r *request) []byte {
	if r.kind == kindChurn {
		return churnBody(w, seed, r.index)
	}
	return solveBody(w, seed, r.stream, r.index)
}

// arrivals returns a Poisson schedule at rate per second over dur seconds,
// as offsets in seconds from the phase start.
func arrivals(seed uint64, stream int, rate, dur float64) []float64 {
	rng := xrand.New(mix64(seed, stream, -1))
	var out []float64
	for t := rng.ExpFloat64() / rate; t < dur; t += rng.ExpFloat64() / rate {
		out = append(out, t)
	}
	return out
}
