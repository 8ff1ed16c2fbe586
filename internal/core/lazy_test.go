package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/spatial"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// LazyGreedy must be bit-identical to LocalGreedy: same centers, same
// per-round gains, same totals, same tie-breaks — it only reorders *when*
// gains are computed, never what they are.
func TestLazyMatchesLocalExactly(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(t, rng, rng.IntRange(2, 40), norm.L2{}, rng.Uniform(0.4, 2.5))
		k := rng.IntRange(1, 6)
		local, err := LocalGreedy{Workers: 1}.Run(context.Background(), in, k)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := LazyGreedy{}.Run(context.Background(), in, k)
		if err != nil {
			t.Fatal(err)
		}
		if local.Total != lazy.Total {
			t.Fatalf("trial %d: totals differ: %v vs %v", trial, local.Total, lazy.Total)
		}
		for j := range local.Centers {
			if !local.Centers[j].Equal(lazy.Centers[j]) {
				t.Fatalf("trial %d round %d: centers differ: %v vs %v",
					trial, j, local.Centers[j], lazy.Centers[j])
			}
			if local.Gains[j] != lazy.Gains[j] {
				t.Fatalf("trial %d round %d: gains differ: %v vs %v",
					trial, j, local.Gains[j], lazy.Gains[j])
			}
		}
	}
}

func TestLazyMatchesLocalUnderTies(t *testing.T) {
	// Four isolated identical-weight points: every round gain ties, so both
	// algorithms must select indices 0, 1, 2, 3 in order.
	in := mustInstance(t,
		[]vec.V{vec.Of(0, 0), vec.Of(10, 0), vec.Of(0, 10), vec.Of(10, 10)},
		[]float64{2, 2, 2, 2}, norm.L2{}, 1)
	local, err := LocalGreedy{Workers: 1}.Run(context.Background(), in, 4)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := LazyGreedy{}.Run(context.Background(), in, 4)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		want := in.Set.Point(j)
		if !local.Centers[j].Equal(want) || !lazy.Centers[j].Equal(want) {
			t.Fatalf("round %d: tie-break broken: local %v lazy %v want %v",
				j, local.Centers[j], lazy.Centers[j], want)
		}
	}
}

func TestLazyValidation(t *testing.T) {
	in := mustInstance(t, []vec.V{vec.Of(0, 0)}, []float64{1}, norm.L2{}, 1)
	if _, err := (LazyGreedy{}).Run(context.Background(), nil, 1); err == nil {
		t.Error("nil instance accepted")
	}
	if _, err := (LazyGreedy{}).Run(context.Background(), in, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if (LazyGreedy{}).Name() != "greedy2-lazy" {
		t.Errorf("name = %q", (LazyGreedy{}).Name())
	}
}

// With a spatial finder installed, every algorithm must produce bit-identical
// results: the accelerated evaluator only skips exactly-zero terms. The
// four-worker scans fill the grid's window cache concurrently, and the last
// trial's n = 2000 instance reuses each cached window many times.
func TestFinderPreservesAllAlgorithms(t *testing.T) {
	rng := xrand.New(43)
	small := []Algorithm{LocalGreedy{Workers: 1}, LocalGreedy{Workers: 4}, LazyGreedy{},
		SimpleGreedy{}, ComplexGreedy{Workers: 1}, ComplexGreedy{Workers: 4}}
	large := []Algorithm{LocalGreedy{Workers: 4}, LazyGreedy{}}
	const trials = 16
	for trial := 0; trial < trials; trial++ {
		n, r, k, algs := rng.IntRange(5, 40), rng.Uniform(0.4, 2), rng.IntRange(1, 4), small
		norms := []norm.Norm{norm.L1{}, norm.L2{}, norm.LInf{}}
		if trial == trials-1 {
			// One norm keeps the O(k·n²) no-finder reference affordable
			// under the race detector.
			n, r, k, algs, norms = 2000, 0.3, 3, large, norms[2:]
		}
		for _, nm := range norms {
			in := randomInstance(t, rng, n, nm, r)
			plain := make([]*Result, len(algs))
			for ai, a := range algs {
				res, err := a.Run(context.Background(), in, k)
				if err != nil {
					t.Fatal(err)
				}
				plain[ai] = res
			}
			grid, err := spatial.NewGrid(in.Set.Points(), r)
			if err != nil {
				t.Fatal(err)
			}
			in.SetFinder(grid)
			for ai, a := range algs {
				res, err := a.Run(context.Background(), in, k)
				if err != nil {
					t.Fatal(err)
				}
				if res.Total != plain[ai].Total {
					t.Fatalf("trial %d %s %s: grid changed total %v -> %v",
						trial, nm.Name(), a.Name(), plain[ai].Total, res.Total)
				}
				for j := range res.Centers {
					if !res.Centers[j].Equal(plain[ai].Centers[j]) {
						t.Fatalf("trial %d %s %s round %d: grid changed center",
							trial, nm.Name(), a.Name(), j)
					}
				}
			}
		}
	}
}

// The first round's all-points scan honours the deadline: a 40,000-user
// solve without a finder takes seconds, but with a 50 ms deadline it must
// return the empty valid prefix and context.DeadlineExceeded within 2 s.
func TestLazyFirstRoundHonoursDeadline(t *testing.T) {
	in := randomInstance(t, xrand.New(61), 40000, norm.L2{}, 0.1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := LazyGreedy{}.Run(ctx, in, 4)
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("deadline of 50ms honoured after %v", took)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || len(res.Centers) != 0 {
		t.Fatalf("got %+v, want the empty prefix", res)
	}
	if verr := res.Validate(); verr != nil {
		t.Fatal(verr)
	}
}

// orderLog records round stages' starts and ends and gain-evaluation counts
// in call order.
type orderLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *orderLog) add(s string) {
	l.mu.Lock()
	l.lines = append(l.lines, s)
	l.mu.Unlock()
}
func (l *orderLog) Count(name string, delta int64) {
	if name == obs.CtrGainEvals {
		l.add(fmt.Sprintf("evals %d", delta))
	}
}
func (*orderLog) Gauge(string, float64)   {}
func (*orderLog) Observe(string, float64) {}
func (*orderLog) TimeNS(string, int64)    {}
func (l *orderLog) Emit(e obs.Event) {
	switch {
	case e.Name != obs.StageRound:
	case e.Type == obs.EvSpanStart:
		l.add("round start")
	case e.Type == obs.EvSpanEnd:
		l.add(fmt.Sprintf("round end %s %v", e.Alg, e.Fields["round"]))
	}
}

// Round 1's scope opens before the initial evaluation of every candidate,
// so its wall time covers them: in LazyGreedy (one count of n from the
// first-round sweep) and in the pipeline's merge (one count per candidate).
func TestRoundOneCoversInitialEvaluation(t *testing.T) {
	const n, k = 200, 3
	in := randomInstance(t, xrand.New(67), n, norm.L2{}, 0.8)
	log := &orderLog{}
	in.SetCollector(log)
	if _, err := (LazyGreedy{}).Run(context.Background(), in, k); err != nil {
		t.Fatal(err)
	}
	want := []string{"round start", fmt.Sprintf("evals %d", n)}
	if len(log.lines) < 2 || log.lines[0] != want[0] || log.lines[1] != want[1] {
		t.Fatalf("LazyGreedy logged %q first, want %q", log.lines[:min(2, len(log.lines))], want)
	}

	log.lines = nil
	p := Pipeline{Alg: "merge", NewSolver: func(uint64) Algorithm { return LazyGreedy{} }}
	if _, err := p.Run(context.Background(), in, k); err != nil {
		t.Fatal(err)
	}
	inRound, starts, evals := false, 0, 0
	for _, line := range log.lines {
		switch line {
		case "round start":
			starts++
			inRound = starts == 1
		case "round end merge 1":
			inRound = false
		case "evals 1":
			if inRound {
				evals++
			}
		}
	}
	if evals != k { // k candidates; no re-pops in round 1
		t.Fatalf("merge round 1 charged %d gain evaluations, want %d: %q", evals, k, log.lines)
	}
}

// The sweep leaves LazyGreedy's answer and counts as they were: on every
// instance greedy2-lazy (its initial bounds from the symmetric first-round
// sweep) selects LocalGreedy's centers with LocalGreedy's gains, bit for
// bit, where LocalGreedy evaluates one RoundGain per candidate; and it
// counts n + re-pops gain evaluations and candidates, as n RoundGain calls
// and its re-pops would.
func TestLazySweepKeepsCounts(t *testing.T) {
	rng := xrand.New(71)
	norms := []norm.Norm{norm.L1{}, norm.L2{}, norm.LInf{}, norm.LP{Exp: 3}}
	for trial := 0; trial < 8; trial++ {
		n, r := rng.IntRange(50, 400), rng.Uniform(0.3, 1.5)
		in := randomInstance(t, rng, n, norms[trial%len(norms)], r)
		grid, err := spatial.NewGrid(in.Set.Points(), r)
		if err != nil {
			t.Fatal(err)
		}
		in.SetFinder(grid)
		m := obs.NewMetrics()
		in.SetCollector(m)
		lazy, err := (LazyGreedy{}).Run(context.Background(), in, 6)
		if err != nil {
			t.Fatal(err)
		}
		in.SetCollector(nil)
		local, err := (LocalGreedy{}).Run(context.Background(), in, 6)
		if err != nil {
			t.Fatal(err)
		}
		for j := range local.Centers {
			if !lazy.Centers[j].Equal(local.Centers[j]) || lazy.Gains[j] != local.Gains[j] {
				t.Fatalf("trial %d round %d: greedy2-lazy chose %v (gain %v), greedy2 %v (gain %v)",
					trial, j+1, lazy.Centers[j], lazy.Gains[j], local.Centers[j], local.Gains[j])
			}
		}
		if lazy.Total != local.Total {
			t.Errorf("trial %d: totals %v greedy2-lazy, %v greedy2", trial, lazy.Total, local.Total)
		}
		snap := m.Snapshot()
		repops := snap.Counters[obs.CtrLazyRepops]
		for _, name := range []string{obs.CtrGainEvals, obs.CtrCandidates} {
			if c := snap.Counters[name]; c != int64(n)+repops {
				t.Errorf("trial %d: %s = %d, want n + re-pops = %d", trial, name, c, int64(n)+repops)
			}
		}
	}
}
