package core

import (
	"context"
	"testing"

	"repro/internal/norm"
	"repro/internal/reward"
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
// finders are the static grid and k-d tree and the grid-backed Dynamic; the
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
			tree, err := spatial.NewKDTree(in.Set.Points(), r)
			if err != nil {
				t.Fatal(err)
			}
			dyn, err := spatial.NewDynamicGrid(in.Set.Points(), r)
			if err != nil {
				t.Fatal(err)
			}
			for _, finder := range []reward.NeighborFinder{grid, tree, dyn} {
				in.SetFinder(finder)
				for ai, a := range algs {
					res, err := a.Run(context.Background(), in, k)
					if err != nil {
						t.Fatal(err)
					}
					if res.Total != plain[ai].Total {
						t.Fatalf("trial %d %s %s (%T): finder changed total %v -> %v",
							trial, nm.Name(), a.Name(), finder, plain[ai].Total, res.Total)
					}
					for j := range res.Centers {
						if !res.Centers[j].Equal(plain[ai].Centers[j]) {
							t.Fatalf("trial %d %s %s (%T) round %d: finder changed center",
								trial, nm.Name(), a.Name(), finder, j)
						}
					}
				}
			}
			in.SetFinder(nil)
		}
	}
}
