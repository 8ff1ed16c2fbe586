package exhaustive

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/solver"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func mustInstance(t *testing.T, pts []vec.V, ws []float64, n norm.Norm, r float64) *reward.Instance {
	t.Helper()
	set, err := pointset.New(pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	in, err := reward.NewInstance(set, n, r)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func randomInstance(t *testing.T, rng *xrand.Rand, n int, nm norm.Norm, r float64) *reward.Instance {
	t.Helper()
	pts := make([]vec.V, n)
	ws := make([]float64, n)
	for i := range pts {
		pts[i] = vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4))
		ws[i] = float64(rng.IntRange(1, 5))
	}
	return mustInstance(t, pts, ws, nm, r)
}

func TestValidation(t *testing.T) {
	in := mustInstance(t, []vec.V{vec.Of(0, 0)}, []float64{1}, norm.L2{}, 1)
	if _, err := Solve(context.Background(), nil, 1, solver.Options{}); err == nil {
		t.Error("nil instance accepted")
	}
	if _, err := Solve(context.Background(), in, 0, solver.Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Solve(context.Background(), in, 5, solver.Options{}); err == nil {
		t.Error("k > candidates accepted")
	}
	if _, err := Solve(context.Background(), in, 1, solver.Options{GridPer: 3, Box: pointset.PaperBox3D()}); err == nil {
		t.Error("mismatched box accepted")
	}
}

// Against a brute-force reference on tiny instances, the parallel
// enumeration must return exactly the point-restricted optimum.
func TestMatchesBruteForce(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 40; trial++ {
		n := rng.IntRange(2, 9)
		in := randomInstance(t, rng, n, norm.L2{}, rng.Uniform(0.7, 2))
		k := rng.IntRange(1, 3)
		if k > n {
			k = n
		}
		res, err := Solve(context.Background(), in, k, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(in, k)
		if math.Abs(res.Total-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: exhaustive %v != brute force %v", trial, res.Total, want)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		if obj := in.Objective(res.Centers); math.Abs(obj-res.Total) > 1e-9*(1+obj) {
			t.Fatalf("objective %v != total %v", obj, res.Total)
		}
	}
}

func bruteForce(in *reward.Instance, k int) float64 {
	n := in.N()
	best := math.Inf(-1)
	combo := make([]int, k)
	var rec func(depth, start int)
	rec = func(depth, start int) {
		if depth == k {
			cs := make([]vec.V, k)
			for j, i := range combo {
				cs[j] = in.Set.Point(i)
			}
			if v := in.Objective(cs); v > best {
				best = v
			}
			return
		}
		for i := start; i < n; i++ {
			combo[depth] = i
			rec(depth+1, i+1)
		}
	}
	rec(0, 0)
	return best
}

// The baseline must dominate every greedy algorithm on point-restricted
// candidate sets (greedy2/greedy3 pick centers among the points).
func TestDominatesPointRestrictedGreedy(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 15; trial++ {
		in := randomInstance(t, rng, rng.IntRange(5, 14), norm.L2{}, rng.Uniform(0.7, 2))
		k := rng.IntRange(1, 3)
		ex, err := Solve(context.Background(), in, k, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []core.Algorithm{core.LocalGreedy{}, core.SimpleGreedy{}} {
			g, err := a.Run(context.Background(), in, k)
			if err != nil {
				t.Fatal(err)
			}
			if g.Total > ex.Total+1e-9 {
				t.Fatalf("trial %d: %s %v beats exhaustive %v", trial, a.Name(), g.Total, ex.Total)
			}
		}
	}
}

func TestGridEnrichmentNeverHurts(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(t, rng, 8, norm.L2{}, 1.2)
		plain, err := Solve(context.Background(), in, 2, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		enriched, err := Solve(context.Background(), in, 2, solver.Options{GridPer: 5})
		if err != nil {
			t.Fatal(err)
		}
		if enriched.Total < plain.Total-1e-9 {
			t.Fatalf("trial %d: enriched %v < plain %v", trial, enriched.Total, plain.Total)
		}
	}
}

func TestPolishNeverHurts(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(t, rng, 8, norm.L2{}, 1.2)
		plain, err := Solve(context.Background(), in, 2, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		polished, err := Solve(context.Background(), in, 2, solver.Options{Polish: true})
		if err != nil {
			t.Fatal(err)
		}
		if polished.Total < plain.Total-1e-9 {
			t.Fatalf("trial %d: polish %v < plain %v", trial, polished.Total, plain.Total)
		}
	}
}

func TestPolishBeatsPointsOnSquare(t *testing.T) {
	pts := []vec.V{vec.Of(0, 0), vec.Of(0.8, 0), vec.Of(0, 0.8), vec.Of(0.8, 0.8)}
	in := mustInstance(t, pts, []float64{1, 1, 1, 1}, norm.L2{}, 1)
	plain, err := Solve(context.Background(), in, 1, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	polished, err := Solve(context.Background(), in, 1, solver.Options{Polish: true})
	if err != nil {
		t.Fatal(err)
	}
	if polished.Total <= plain.Total {
		t.Fatalf("polish %v did not improve on plain %v", polished.Total, plain.Total)
	}
	if polished.Total < 1.7 {
		t.Fatalf("polish total = %v, want ≈ 1.736", polished.Total)
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	rng := xrand.New(17)
	in := randomInstance(t, rng, 12, norm.L1{}, 1.5)
	a, err := Solve(context.Background(), in, 3, solver.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), in, 3, solver.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Total-b.Total) > 1e-12 {
		t.Fatalf("worker counts disagree: %v vs %v", a.Total, b.Total)
	}
}

// Branch-and-bound pruning must never change the optimum.
func TestPruneEquivalence(t *testing.T) {
	rng := xrand.New(149)
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(t, rng, rng.IntRange(4, 14), norm.L2{}, rng.Uniform(0.6, 2))
		k := rng.IntRange(1, 3)
		pruned, err := Solve(context.Background(), in, k, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Solve(context.Background(), in, k, solver.Options{DisablePrune: true})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pruned.Total-plain.Total) > 1e-9*(1+plain.Total) {
			t.Fatalf("trial %d: pruned %v != plain %v", trial, pruned.Total, plain.Total)
		}
	}
}

func BenchmarkSolvePruned(b *testing.B) {
	in := benchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), in, 4, solver.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveUnpruned(b *testing.B) {
	in := benchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), in, 4, solver.Options{Workers: 1, DisablePrune: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchInstance(b *testing.B) *reward.Instance {
	b.Helper()
	rng := xrand.New(42)
	pts := make([]vec.V, 40)
	ws := make([]float64, 40)
	for i := range pts {
		pts[i] = vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4))
		ws[i] = float64(rng.IntRange(1, 5))
	}
	set, err := pointset.New(pts, ws)
	if err != nil {
		b.Fatal(err)
	}
	in, err := reward.NewInstance(set, norm.L2{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func TestCombinations(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, 10}, {40, 4, 91390}, {3, 0, 1}, {3, 4, 0}, {3, -1, 0},
	}
	for _, c := range cases {
		if got := Combinations(c.n, c.k); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestKEqualsCandidateCount(t *testing.T) {
	in := mustInstance(t, []vec.V{vec.Of(0, 0), vec.Of(2, 2)}, []float64{1, 2}, norm.L2{}, 1)
	res, err := Solve(context.Background(), in, 2, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Total-3) > 1e-9 {
		t.Fatalf("total = %v, want 3", res.Total)
	}
}

// TestCancellationAnytime covers the three cancellation regimes of Solve's
// anytime contract: a dead context before any work, cancellation mid-
// enumeration, and the invariant that whatever prefix comes back validates
// and never beats the true optimum.
func TestCancellationAnytime(t *testing.T) {
	rng := xrand.New(31)
	in := randomInstance(t, rng, 24, norm.L2{}, 1.5)

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := Solve(ctx, in, 2, solver.Options{Workers: 2})
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res == nil || len(res.Centers) != 0 {
			t.Fatalf("pre-cancelled Solve = %+v, want an empty result", res)
		}
		if verr := res.Validate(); verr != nil {
			t.Fatalf("empty result invalid: %v", verr)
		}
	})

	t.Run("mid-enumeration", func(t *testing.T) {
		full, err := Solve(context.Background(), in, 3, solver.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		// A large unpruned search on a bigger instance, cancelled almost
		// immediately: the result must be a valid best-so-far (possibly
		// empty) never exceeding the optimum of its own instance.
		big := randomInstance(t, rng, 90, norm.L2{}, 1.5)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer cancel()
		res, err := Solve(ctx, big, 3, solver.Options{Workers: 2, DisablePrune: true})
		if err == nil {
			t.Skip("enumeration finished before the deadline on this machine")
		}
		if err != context.DeadlineExceeded {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if res == nil {
			t.Fatal("cancelled Solve returned a nil result")
		}
		if verr := res.Validate(); verr != nil {
			t.Fatalf("partial result invalid: %v", verr)
		}
		if len(res.Centers) != 0 && len(res.Centers) != 3 {
			t.Fatalf("partial result has %d centers, want 0 or k", len(res.Centers))
		}
		// Sanity on the small instance's uncancelled optimum: committing the
		// winning subset reproduces its own total.
		if verr := full.Validate(); verr != nil {
			t.Fatalf("uncancelled result invalid: %v", verr)
		}
	})

	t.Run("polish-skipped-on-cancel", func(t *testing.T) {
		// With the context cancelled during enumeration, Polish must not
		// run (it would burn time after the deadline); the result still
		// validates. Triggered via an instant deadline.
		ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
		defer cancel()
		res, err := Solve(ctx, in, 2, solver.Options{Workers: 1, Polish: true})
		if err == nil {
			t.Skip("solve finished before a 1ns deadline")
		}
		if verr := res.Validate(); verr != nil {
			t.Fatalf("result invalid: %v", verr)
		}
	})
}
