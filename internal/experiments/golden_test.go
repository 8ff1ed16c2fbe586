package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/xrand"
)

// Golden determinism: the whole pipeline — generator, algorithms, baselines
// — must produce the exact same numbers for a fixed seed, across machines
// and refactors that do not intentionally change behavior. The pinned
// totals are float64 bit patterns; a diff here means either a real
// behavior change (update deliberately) or lost determinism (a bug).
func TestGoldenDeterminism(t *testing.T) {
	set, err := pointset.GenUniform(25, pointset.PaperBox2D(), pointset.RandomIntWeight, xrand.New(2011))
	if err != nil {
		t.Fatal(err)
	}
	in, err := reward.NewInstance(set, norm.L2{}, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, a := range []core.Algorithm{
		core.LocalGreedy{Workers: 1},
		core.LazyGreedy{},
		core.SimpleGreedy{},
		core.ComplexGreedy{Workers: 1},
	} {
		res, err := a.Run(context.Background(), in, 3)
		if err != nil {
			t.Fatal(err)
		}
		got[a.Name()] = res.Total
	}
	for name, bits := range map[string]uint64{
		"greedy2":      0x4041bcbb10688010, // 35.474458743119726
		"greedy2-lazy": 0x4041bcbb10688010,
		"greedy3":      0x4040a570b8cf5fd3, // 33.29250249982547
		"greedy4":      0x4041bcbb10688010,
	} {
		if math.Float64bits(got[name]) != bits {
			t.Errorf("%s total %v (bits %016x), golden %v (bits %016x)",
				name, got[name], math.Float64bits(got[name]), math.Float64frombits(bits), bits)
		}
	}
	// Structural invariants that hold regardless of the exact digits.
	if got["greedy2"] != got["greedy2-lazy"] {
		t.Fatalf("lazy diverged: %v vs %v", got["greedy2-lazy"], got["greedy2"])
	}
	if got["greedy4"] < got["greedy2"]-1e-9 || got["greedy2"] < got["greedy3"]-1e-9 {
		t.Fatalf("ordering violated: %v", got)
	}
	// Exact reproducibility: a second run yields identical bits.
	res2, err := core.ComplexGreedy{Workers: 8}.Run(context.Background(), in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Total != got["greedy4"] {
		t.Fatalf("greedy4 not reproducible: %v vs %v", res2.Total, got["greedy4"])
	}
	// Pin the generated workload itself (first point, first weight).
	p0 := set.Point(0)
	if set.Weight(0) != math.Trunc(set.Weight(0)) {
		t.Fatalf("weight 0 = %v not integral", set.Weight(0))
	}
	if p0[0] < 0 || p0[0] > 4 || p0[1] < 0 || p0[1] > 4 {
		t.Fatalf("point 0 = %v outside the box", p0)
	}
}

// Fig2 output is a pure closed form: pin a rendered fragment exactly.
func TestGoldenFig2Render(t *testing.T) {
	out, err := RunFig2(context.Background(), RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	text := out.Render()
	for _, want := range []string{
		"1   1.0000   0.1000", // k=1, n=10
		"2   0.7500   0.1900", // k=2, n=10
		"4   0.6836   0.3439", // k=4, n=10
		"2   0.7500   0.0494", // k=2, n=40
		"10  0.6513   0.2237", // k=10, n=40
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fig2 golden fragment %q missing", want)
		}
	}
}
