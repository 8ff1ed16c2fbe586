package reward

import (
	"context"
	"math"
	"testing"

	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/spatial"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func mustInstance(t *testing.T, pts []vec.V, ws []float64, n norm.Norm, r float64) *Instance {
	t.Helper()
	set, err := pointset.New(pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(set, n, r)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewInstanceValidation(t *testing.T) {
	set, _ := pointset.UnitWeights([]vec.V{vec.Of(0, 0)})
	if _, err := NewInstance(nil, norm.L2{}, 1); err == nil {
		t.Error("nil set accepted")
	}
	if _, err := NewInstance(set, nil, 1); err == nil {
		t.Error("nil norm accepted")
	}
	for _, r := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewInstance(set, norm.L2{}, r); err == nil {
			t.Errorf("radius %v accepted", r)
		}
	}
}

func TestCoverageAndPointReward(t *testing.T) {
	in := mustInstance(t,
		[]vec.V{vec.Of(0, 0), vec.Of(1, 0), vec.Of(3, 0)},
		[]float64{2, 4, 1}, norm.L2{}, 2)
	c := vec.Of(0, 0)
	// Point 0 at distance 0: coverage 1.
	if got := in.Coverage(c, 0); got != 1 {
		t.Errorf("Coverage self = %v", got)
	}
	// Point 1 at distance 1, r=2: coverage 0.5, point reward
	// ψ = w·coverage = 2 (paper Eq. 1).
	if got := in.Coverage(c, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Coverage = %v, want 0.5", got)
	}
	if got := in.Set.Weight(1) * in.Coverage(c, 1); math.Abs(got-2) > 1e-12 {
		t.Errorf("point reward = %v, want 2", got)
	}
	// Point 2 at distance 3 > r: zero.
	if got := in.Coverage(c, 2); got != 0 {
		t.Errorf("outside coverage = %v", got)
	}
	// Exactly on the boundary: paper Eq. 1 gives w·(1 − r/r) = 0.
	inB := mustInstance(t, []vec.V{vec.Of(2, 0)}, []float64{5}, norm.L2{}, 2)
	if got := inB.Coverage(vec.Of(0, 0), 0); got != 0 {
		t.Errorf("boundary coverage = %v, want 0", got)
	}
}

func TestObjectiveCap(t *testing.T) {
	// One point, two coincident centers: reward capped at w.
	in := mustInstance(t, []vec.V{vec.Of(1, 1)}, []float64{3}, norm.L2{}, 1)
	c := vec.Of(1, 1)
	if got := in.Objective([]vec.V{c, c}); math.Abs(got-3) > 1e-12 {
		t.Errorf("capped objective = %v, want 3", got)
	}
	if got := in.Objective([]vec.V{c}); math.Abs(got-3) > 1e-12 {
		t.Errorf("single objective = %v, want 3", got)
	}
	if got := in.Objective(nil); got != 0 {
		t.Errorf("empty objective = %v, want 0", got)
	}
}

func TestObjectivePartialSum(t *testing.T) {
	// Point halfway between two centers, each at distance 0.5 with r=1:
	// fractions 0.5 + 0.5 = 1.0 exactly → reward w.
	in := mustInstance(t, []vec.V{vec.Of(0.5, 0)}, []float64{2}, norm.L2{}, 1)
	got := in.Objective([]vec.V{vec.Of(0, 0), vec.Of(1, 0)})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("objective = %v, want 2", got)
	}
	// Single center: 0.5 fraction → reward 1.
	if got := in.Objective([]vec.V{vec.Of(0, 0)}); math.Abs(got-1) > 1e-12 {
		t.Errorf("objective = %v, want 1", got)
	}
}

func TestRoundGainAndApplyRound(t *testing.T) {
	in := mustInstance(t,
		[]vec.V{vec.Of(0, 0), vec.Of(0.5, 0)},
		[]float64{1, 2}, norm.L2{}, 1)
	y := in.NewResiduals()
	if !ValidResiduals(y) || len(y) != 2 {
		t.Fatal("bad initial residuals")
	}
	c := vec.Of(0, 0)
	want := 1*1.0 + 2*0.5
	if g := in.RoundGain(c, y); math.Abs(g-want) > 1e-12 {
		t.Errorf("RoundGain = %v, want %v", g, want)
	}
	gain := in.ApplyRound(c, y)
	if math.Abs(gain-want) > 1e-12 {
		t.Errorf("ApplyRound gain = %v, want %v", gain, want)
	}
	if math.Abs(y[0]) > 1e-12 || math.Abs(y[1]-0.5) > 1e-12 {
		t.Errorf("residuals after round = %v", y)
	}
	// Second identical round: point 0 exhausted, point 1 capped at y=0.5.
	gain2 := in.ApplyRound(c, y)
	if math.Abs(gain2-1) > 1e-12 {
		t.Errorf("second round gain = %v, want 1", gain2)
	}
	if !ValidResiduals(y) {
		t.Errorf("residuals invalid: %v", y)
	}
}

func TestApplyRoundsMatchObjective(t *testing.T) {
	// Invariant: Σ_j g(j) == Objective(centers) for any center sequence.
	rng := xrand.New(11)
	for trial := 0; trial < 100; trial++ {
		n := rng.IntRange(1, 20)
		pts := make([]vec.V, n)
		ws := make([]float64, n)
		for i := range pts {
			pts[i] = vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4))
			ws[i] = float64(rng.IntRange(1, 5))
		}
		in := mustInstance(t, pts, ws, norm.L2{}, rng.Uniform(0.5, 2.5))
		k := rng.IntRange(1, 4)
		centers := make([]vec.V, k)
		for j := range centers {
			centers[j] = vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4))
		}
		y := in.NewResiduals()
		var sum float64
		for _, c := range centers {
			g := in.ApplyRound(c, y)
			sum += g
			if !ValidResiduals(y) {
				t.Fatalf("trial %d: residuals left [0,1]: %v", trial, y)
			}
		}
		obj := in.Objective(centers)
		if math.Abs(sum-obj) > 1e-9*(1+obj) {
			t.Fatalf("trial %d: round sum %v != objective %v", trial, sum, obj)
		}
	}
}

// Submodularity (paper Lemma 0b): for A ⊂ B and s ∉ B,
// f(A∪{s}) − f(A) ≥ f(B∪{s}) − f(B).
func TestObjectiveSubmodular(t *testing.T) {
	rng := xrand.New(29)
	for trial := 0; trial < 300; trial++ {
		n := rng.IntRange(1, 12)
		pts := make([]vec.V, n)
		ws := make([]float64, n)
		for i := range pts {
			pts[i] = vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4))
			ws[i] = float64(rng.IntRange(1, 5))
		}
		in := mustInstance(t, pts, ws, norm.L2{}, rng.Uniform(0.5, 3))
		randCenter := func() vec.V { return vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4)) }
		a := make([]vec.V, rng.IntRange(0, 3))
		for j := range a {
			a[j] = randCenter()
		}
		extra := make([]vec.V, rng.IntRange(1, 3))
		for j := range extra {
			extra[j] = randCenter()
		}
		b := append(append([]vec.V{}, a...), extra...)
		s := randCenter()
		gainA := in.Objective(append(append([]vec.V{}, a...), s)) - in.Objective(a)
		gainB := in.Objective(append(append([]vec.V{}, b...), s)) - in.Objective(b)
		if gainA < gainB-1e-9 {
			t.Fatalf("trial %d: submodularity violated: %v < %v", trial, gainA, gainB)
		}
	}
}

// Monotonicity: adding a center never decreases f.
func TestObjectiveMonotone(t *testing.T) {
	rng := xrand.New(31)
	for trial := 0; trial < 200; trial++ {
		n := rng.IntRange(1, 12)
		pts := make([]vec.V, n)
		for i := range pts {
			pts[i] = vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4))
		}
		set, _ := pointset.UnitWeights(pts)
		in, _ := NewInstance(set, norm.L1{}, 1.5)
		cs := []vec.V{}
		prev := 0.0
		for j := 0; j < 4; j++ {
			cs = append(cs, vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4)))
			cur := in.Objective(cs)
			if cur < prev-1e-9 {
				t.Fatalf("objective decreased: %v -> %v", prev, cur)
			}
			prev = cur
		}
		// Bounded by total weight.
		if prev > set.TotalWeight()+1e-9 {
			t.Fatalf("objective %v exceeds total weight %v", prev, set.TotalWeight())
		}
	}
}

func TestCoveredIndices(t *testing.T) {
	in := mustInstance(t,
		[]vec.V{vec.Of(0, 0), vec.Of(0.9, 0), vec.Of(5, 5)},
		[]float64{1, 1, 1}, norm.L2{}, 1)
	got := in.CoveredIndices(vec.Of(0, 0))
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("CoveredIndices = %v", got)
	}
	if got := in.CoveredIndices(vec.Of(-9, -9)); got != nil {
		t.Errorf("far center covered %v", got)
	}
}

func TestValidResiduals(t *testing.T) {
	if !ValidResiduals([]float64{0, 0.5, 1}) {
		t.Error("valid residuals rejected")
	}
	if ValidResiduals([]float64{-0.1}) || ValidResiduals([]float64{1.1}) || ValidResiduals([]float64{math.NaN()}) {
		t.Error("invalid residuals accepted")
	}
}

func TestDifferentNormsChangeCoverage(t *testing.T) {
	// Point at (1,1): L2 distance sqrt(2) ≈ 1.414, L1 distance 2.
	pts := []vec.V{vec.Of(1, 1)}
	l2in := mustInstance(t, pts, []float64{1}, norm.L2{}, 2)
	l1in := mustInstance(t, pts, []float64{1}, norm.L1{}, 2)
	c := vec.Of(0, 0)
	g2, g1 := l2in.Coverage(c, 0), l1in.Coverage(c, 0)
	if math.Abs(g2-(1-math.Sqrt2/2)) > 1e-12 {
		t.Errorf("L2 coverage = %v", g2)
	}
	if g1 != 0 {
		t.Errorf("L1 coverage = %v, want 0 (on boundary)", g1)
	}
}

// Users at x = ±1e308 are finite, so a point set accepts them, but their
// coordinate difference overflows: the L2 distance between them is NaN
// (Inf/Inf in Dist2's scaling). A NaN distance covers nothing. So from
// every user, with and without the grid, every evaluation is finite and
// they agree: each user covers only itself, for a reward of 1, and
// ApplyRound spends only its own residual.
func TestNaNDistanceCoversNothing(t *testing.T) {
	pts := []vec.V{vec.Of(1e308, 0), vec.Of(-1e308, 0), vec.Of(0, 0)}
	for _, nm := range []norm.Norm{norm.L2{}, norm.L1{}, norm.LInf{}, norm.LP{Exp: 3}} {
		in := mustInstance(t, pts, []float64{1, 1, 1}, nm, 1)
		grid, err := spatial.NewGrid(pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, finder := range []NeighborFinder{nil, grid} {
			in.SetFinder(finder)
			gains := make([]float64, in.N())
			if err := in.RoundGains(context.Background(), in.NewResiduals(), gains); err != nil {
				t.Fatal(err)
			}
			for a := range pts {
				c := in.Set.Point(a)
				var coverage, covered float64
				for i := range pts {
					coverage += in.Set.Weight(i) * in.Coverage(c, i)
				}
				for _, i := range in.CoveredIndices(c) {
					covered += in.Set.Weight(i) * in.Coverage(c, i)
				}
				e, err := NewEvaluator(in, []vec.V{c})
				if err != nil {
					t.Fatal(err)
				}
				y := in.NewResiduals()
				got := []struct {
					name string
					v    float64
				}{
					{"sum of Coverage", coverage},
					{"RoundGain", in.RoundGain(c, in.NewResiduals())},
					{"RoundGains", gains[a]},
					{"ApplyRound", in.ApplyRound(c, y)},
					{"Objective", in.Objective([]vec.V{c})},
					{"CoveredIndices' coverage", covered},
					{"Evaluator", e.Objective()},
				}
				for _, g := range got {
					if g.v != 1 {
						t.Errorf("%s finder=%v from user %d: %s = %v, want 1", nm.Name(), finder != nil, a, g.name, g.v)
					}
				}
				for i, yi := range y {
					want := 1.0
					if i == a {
						want = 0
					}
					if yi != want {
						t.Errorf("%s finder=%v from user %d: ApplyRound left y[%d] = %v, want %v", nm.Name(), finder != nil, a, i, yi, want)
					}
				}
			}
		}
	}
}
