package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/reward"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// sameResult asserts bit-for-bit equality of two results' centers and gains.
func sameResult(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if got.Total != want.Total {
		t.Fatalf("%s: totals differ: %v vs %v", label, got.Total, want.Total)
	}
	if len(got.Centers) != len(want.Centers) {
		t.Fatalf("%s: %d centers vs %d", label, len(got.Centers), len(want.Centers))
	}
	for j := range got.Centers {
		if !got.Centers[j].Equal(want.Centers[j]) {
			t.Fatalf("%s round %d: centers differ: %v vs %v", label, j, got.Centers[j], want.Centers[j])
		}
		if got.Gains[j] != want.Gains[j] {
			t.Fatalf("%s round %d: gains differ: %v vs %v", label, j, got.Gains[j], want.Gains[j])
		}
	}
}

// single wraps a classic one-shot algorithm in the pipeline seam: no
// partitioner (one part), the algorithm itself as the per-part solver, and
// the merge re-scoring its own k candidates.
func single(alg Algorithm) Pipeline {
	return Pipeline{
		Alg:       alg.Name(),
		NewSolver: func(uint64) Algorithm { return alg },
	}
}

// TestSinglePipelineBitIdentity: the trivial one-part pipeline around a
// greedy solver reproduces that solver bit for bit. At round j the inner
// algorithm chose the gain-argmax over all points given residuals y_j;
// restricted to its own candidate set the argmax is unchanged, so the merge
// re-selects exactly the inner centers in order.
func TestSinglePipelineBitIdentity(t *testing.T) {
	rng := xrand.New(93)
	algs := []Algorithm{LocalGreedy{Workers: 1}, LazyGreedy{}}
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(t, rng, rng.IntRange(5, 60), norm.L2{}, rng.Uniform(0.4, 2))
		k := rng.IntRange(1, 5)
		for _, a := range algs {
			want, err := a.Run(context.Background(), in, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := single(a).Run(context.Background(), in, k)
			if err != nil {
				t.Fatal(err)
			}
			if got.Algorithm != a.Name() {
				t.Fatalf("single reports %q, want %q", got.Algorithm, a.Name())
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			sameResult(t, got, want, a.Name())
		}
	}
}

// dupPartitioner hands the pipeline the same full instance as several parts
// with distinct IDs — every shard nominates identical candidates, so the
// merge's dedup and re-scoring must still produce the single-shot result.
type dupPartitioner struct{ copies int }

func (d dupPartitioner) Partition(_ context.Context, in *reward.Instance, _ int) ([]Part, error) {
	parts := make([]Part, d.copies)
	for i := range parts {
		parts[i] = Part{ID: uint64(i + 1), In: in, Own: in.N()}
	}
	return parts, nil
}

func TestPipelineDedupsDuplicateCandidates(t *testing.T) {
	rng := xrand.New(7)
	in := randomInstance(t, rng, 40, norm.L2{}, 1.2)
	const k = 3
	want, err := (LazyGreedy{}).Run(context.Background(), in, k)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	p := Pipeline{
		Alg:       "dup",
		Partition: dupPartitioner{copies: 3},
		NewSolver: func(uint64) Algorithm { return LazyGreedy{} },
		Workers:   2,
	}
	got, err := p.Run(context.Background(), in.WithCollector(m), k)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want, "dedup")
	snap := m.Snapshot()
	if c := snap.Counters[obs.CtrShardCandidates]; c != k {
		t.Errorf("candidate counter = %d, want %d (duplicates not dropped)", c, k)
	}
	if c := snap.Counters[obs.CtrShardSolves]; c != 3 {
		t.Errorf("shard solves = %d, want 3", c)
	}
}

func TestPipelineConfigErrors(t *testing.T) {
	in := mustInstance(t, []vec.V{vec.Of(0, 0)}, []float64{1}, norm.L2{}, 1)
	p := single(LazyGreedy{})
	if _, err := p.Run(context.Background(), nil, 1); err == nil {
		t.Error("pipeline accepted nil instance")
	}
	if _, err := p.Run(context.Background(), in, 0); err == nil {
		t.Error("pipeline accepted k=0")
	}
	if _, err := (Pipeline{}).Run(context.Background(), in, 1); err == nil {
		t.Error("pipeline without NewSolver accepted")
	}
	bad := Pipeline{
		Partition: emptyPartitioner{},
		NewSolver: func(uint64) Algorithm { return LazyGreedy{} },
	}
	if _, err := bad.Run(context.Background(), in, 1); err == nil {
		t.Error("pipeline accepted a partitioner that returned no parts")
	}
}

type emptyPartitioner struct{}

func (emptyPartitioner) Partition(context.Context, *reward.Instance, int) ([]Part, error) {
	return nil, nil
}

// failingAlg surfaces inner-solver errors through the pipeline.
type failingAlg struct{}

func (failingAlg) Name() string { return "failing" }
func (failingAlg) Run(context.Context, *reward.Instance, int) (*Result, error) {
	return nil, errors.New("inner boom")
}

func TestPipelinePropagatesShardError(t *testing.T) {
	rng := xrand.New(5)
	in := randomInstance(t, rng, 10, norm.L2{}, 1)
	p := Pipeline{NewSolver: func(uint64) Algorithm { return failingAlg{} }}
	_, err := p.Run(context.Background(), in, 2)
	if err == nil || err.Error() != "core: pipeline shard 0: inner boom" {
		t.Fatalf("err = %v, want wrapped inner error", err)
	}
}

// TestPipelinePreCancelled: the pipeline honors the anytime contract's
// degenerate case — a dead context yields the empty (valid) prefix plus the
// context's error, with the cancellation recorded as telemetry.
func TestPipelinePreCancelled(t *testing.T) {
	rng := xrand.New(17)
	in := randomInstance(t, rng, 20, norm.L2{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := obs.NewMetrics()
	in.SetCollector(m)
	p := Pipeline{NewSolver: func(uint64) Algorithm { return LazyGreedy{} }}
	res, err := p.Run(ctx, in, 3)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Centers) != 0 {
		t.Fatalf("pre-cancelled pipeline returned %+v, want empty result", res)
	}
	if verr := res.Validate(); verr != nil {
		t.Fatal(verr)
	}
	if m.Snapshot().Counters[obs.CtrCancelled] != 1 {
		t.Error("cancellation not counted")
	}
}

// cancelBeforeRun cancels the shared context the moment a shard solve
// starts, so the pipeline observes cancellation after the solve stage and
// before the merge commits anything.
type cancelBeforeRun struct {
	inner  Algorithm
	cancel context.CancelFunc
}

func (c cancelBeforeRun) Name() string { return c.inner.Name() }
func (c cancelBeforeRun) Run(ctx context.Context, in *reward.Instance, k int) (*Result, error) {
	c.cancel()
	return c.inner.Run(ctx, in, k)
}

// cancelPartitioner cancels the shared context part-way through building
// its parts and reports the cancellation as its error, as a partitioner
// that reads its context between parts does.
type cancelPartitioner struct{ cancel context.CancelFunc }

func (c cancelPartitioner) Partition(ctx context.Context, _ *reward.Instance, _ int) ([]Part, error) {
	c.cancel()
	return nil, ctx.Err()
}

// TestPipelineCancelDuringPartition: a partition cut by its deadline is a
// cancellation, not a failure: the empty valid prefix and the context's
// error, counted as cancelled.
func TestPipelineCancelDuringPartition(t *testing.T) {
	rng := xrand.New(23)
	in := randomInstance(t, rng, 30, norm.L2{}, 1)
	m := obs.NewMetrics()
	in.SetCollector(m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := Pipeline{
		Partition: cancelPartitioner{cancel: cancel},
		NewSolver: func(uint64) Algorithm { return LazyGreedy{} },
	}
	res, err := p.Run(ctx, in, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Centers) != 0 {
		t.Fatalf("cancel during partition returned %+v, want empty valid prefix", res)
	}
	if verr := res.Validate(); verr != nil {
		t.Fatal(verr)
	}
	if m.Snapshot().Counters[obs.CtrCancelled] != 1 {
		t.Error("cancellation not counted")
	}
}

func TestPipelineCancelDuringShardSolve(t *testing.T) {
	rng := xrand.New(29)
	in := randomInstance(t, rng, 30, norm.L2{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := Pipeline{
		NewSolver: func(uint64) Algorithm { return cancelBeforeRun{inner: LazyGreedy{}, cancel: cancel} },
	}
	res, err := p.Run(ctx, in, 3)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Centers) != 0 {
		t.Fatalf("cancel before merge returned %+v, want empty valid prefix", res)
	}
	if verr := res.Validate(); verr != nil {
		t.Fatal(verr)
	}
}

// mergeCanceller cancels a context once the pipeline's merge commits its
// j-th round (round events only fire from the merge: the pipeline solves its
// parts on collector-less copies of the instance).
type mergeCanceller struct {
	round  int
	cancel context.CancelFunc
}

func (mergeCanceller) Count(string, int64)     {}
func (mergeCanceller) TimeNS(string, int64)    {}
func (mergeCanceller) Gauge(string, float64)   {}
func (mergeCanceller) Observe(string, float64) {}
func (m mergeCanceller) Emit(e obs.Event) {
	if e.Type == obs.EvSpanEnd && e.Name == obs.StageRound && e.Fields["round"] >= float64(m.round) {
		m.cancel()
	}
}

// TestPipelineCancelMidMerge: cancelling after merge round j returns exactly
// the first j merge rounds — bit for bit the prefix of the uncancelled run.
func TestPipelineCancelMidMerge(t *testing.T) {
	rng := xrand.New(31)
	in := randomInstance(t, rng, 50, norm.L2{}, 0.8)
	const k = 4
	p := Pipeline{
		Alg:       "dup",
		Partition: dupPartitioner{copies: 2},
		NewSolver: func(uint64) Algorithm { return LazyGreedy{} },
	}
	full, err := p.Run(context.Background(), in, k)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < k; j++ {
		ctx, cancel := context.WithCancel(context.Background())
		part, err := p.Run(ctx, in.WithCollector(mergeCanceller{round: j, cancel: cancel}), k)
		cancel()
		if err != context.Canceled {
			t.Fatalf("j=%d: err = %v, want context.Canceled", j, err)
		}
		if len(part.Centers) != j {
			t.Fatalf("j=%d: got %d centers, want exactly %d", j, len(part.Centers), j)
		}
		if verr := part.Validate(); verr != nil {
			t.Fatal(verr)
		}
		var total float64
		for _, g := range full.Gains[:j] {
			total += g
		}
		sameResult(t, part, &Result{
			Algorithm: full.Algorithm,
			Centers:   full.Centers[:j],
			Gains:     full.Gains[:j],
			Total:     total,
		}, "prefix")
	}
}

// TestPipelineMergeRoundsReported: the merge's rounds are the standard round
// stages under the pipeline's name, children of the merge stage, so
// serving-layer round accounting works unchanged for sharded solves.
func TestPipelineMergeRoundsReported(t *testing.T) {
	rng := xrand.New(37)
	in := randomInstance(t, rng, 40, norm.L2{}, 1)
	const k = 3
	m := obs.NewMetrics()
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	in.SetCollector(obs.Multi(m, sink))
	p := Pipeline{
		Alg:       "dup",
		Partition: dupPartitioner{copies: 2},
		NewSolver: func(uint64) Algorithm { return LazyGreedy{} },
	}
	if _, err := p.Run(context.Background(), in, k); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if got := snap.Counters[obs.CtrRounds]; got != k {
		t.Errorf("rounds counter = %d, want %d (inner rounds must not leak)", got, k)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	ends, merge := 0, ""
	for dec := json.NewDecoder(&buf); dec.More(); {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		switch {
		case e.Type == obs.EvSpanStart && e.Name == obs.StageShardMerge:
			merge = e.Span
		case e.Type == obs.EvSpanEnd && e.Name == obs.StageRound:
			ends++
			if e.Alg != "dup" {
				t.Errorf("round stage attributed to %q, want the pipeline name", e.Alg)
			}
			if merge == "" || e.Parent != merge {
				t.Errorf("round stage parented by %q, want the merge stage %q", e.Parent, merge)
			}
		}
	}
	if ends != k {
		t.Errorf("%d round stages, want %d", ends, k)
	}
}
