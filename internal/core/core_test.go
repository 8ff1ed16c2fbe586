package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/theory"
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

func allAlgorithms() []Algorithm {
	return []Algorithm{
		LocalGreedy{},
		SimpleGreedy{},
		ComplexGreedy{},
		ComplexGreedy{Mode: BallProjection},
	}
}

func TestArgValidation(t *testing.T) {
	in := mustInstance(t, []vec.V{vec.Of(0, 0)}, []float64{1}, norm.L2{}, 1)
	for _, a := range allAlgorithms() {
		if _, err := a.Run(context.Background(), nil, 1); err == nil {
			t.Errorf("%s accepted nil instance", a.Name())
		}
		if _, err := a.Run(context.Background(), in, 0); err == nil {
			t.Errorf("%s accepted k=0", a.Name())
		}
		if _, err := a.Run(context.Background(), in, -2); err == nil {
			t.Errorf("%s accepted negative k", a.Name())
		}
	}
	if _, err := (RoundBased{}).Run(context.Background(), in, 1); err == nil {
		t.Error("RoundBased without solver accepted")
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Algorithm{
		"greedy2": LocalGreedy{},
		"greedy3": SimpleGreedy{},
		"greedy4": ComplexGreedy{},
		"greedy1": RoundBased{},
	}
	for want, a := range cases {
		if a.Name() != want {
			t.Errorf("%T.Name() = %q, want %q", a, a.Name(), want)
		}
	}
}

func TestSinglePointAllAlgorithms(t *testing.T) {
	in := mustInstance(t, []vec.V{vec.Of(2, 2)}, []float64{3}, norm.L2{}, 1)
	for _, a := range allAlgorithms() {
		res, err := a.Run(context.Background(), in, 1)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		// Optimal: center on the point, reward = w = 3.
		if math.Abs(res.Total-3) > 1e-9 {
			t.Errorf("%s: total = %v, want 3", a.Name(), res.Total)
		}
		if !res.Centers[0].ApproxEqual(vec.Of(2, 2), 1e-9) {
			t.Errorf("%s: center = %v", a.Name(), res.Centers[0])
		}
	}
}

func TestResultTotalsMatchObjective(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(t, rng, rng.IntRange(3, 25), norm.L2{}, rng.Uniform(0.6, 2))
		k := rng.IntRange(1, 4)
		for _, a := range allAlgorithms() {
			res, err := a.Run(context.Background(), in, k)
			if err != nil {
				t.Fatalf("%s: %v", a.Name(), err)
			}
			if err := res.Validate(); err != nil {
				t.Fatalf("%s: %v", a.Name(), err)
			}
			if len(res.Centers) != k {
				t.Fatalf("%s: %d centers, want %d", a.Name(), len(res.Centers), k)
			}
			obj := in.Objective(res.Centers)
			if math.Abs(obj-res.Total) > 1e-9*(1+obj) {
				t.Fatalf("%s: objective %v != reported total %v", a.Name(), obj, res.Total)
			}
			if res.Total > in.Set.TotalWeight()+1e-9 {
				t.Fatalf("%s: total %v exceeds Σw", a.Name(), res.Total)
			}
		}
	}
}

// The round gain sequence of greedy2 is non-increasing: it maximizes the
// same candidate objective against monotonically shrinking residuals.
func TestLocalGreedyGainsNonIncreasing(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(t, rng, 20, norm.L2{}, 1.2)
		res, err := LocalGreedy{}.Run(context.Background(), in, 5)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(res.Gains); j++ {
			if res.Gains[j] > res.Gains[j-1]+1e-9 {
				t.Fatalf("trial %d: gain increased %v -> %v", trial, res.Gains[j-1], res.Gains[j])
			}
		}
	}
}

// Per-round dominance: greedy2's first-round gain is >= greedy3's, because
// Algorithm 2 maximizes the coverage reward over all points while
// Algorithm 3 fixes the center by the single-point rule.
func TestLocalDominatesSimpleFirstRound(t *testing.T) {
	rng := xrand.New(9)
	for trial := 0; trial < 50; trial++ {
		in := randomInstance(t, rng, rng.IntRange(2, 30), norm.L2{}, rng.Uniform(0.5, 2.5))
		r2, err := LocalGreedy{}.Run(context.Background(), in, 1)
		if err != nil {
			t.Fatal(err)
		}
		r3, err := SimpleGreedy{}.Run(context.Background(), in, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r2.Gains[0] < r3.Gains[0]-1e-9 {
			t.Fatalf("trial %d: greedy2 round-1 %v < greedy3 %v", trial, r2.Gains[0], r3.Gains[0])
		}
	}
}

// greedy4's per-round gain is >= greedy2's in the first round: the walk
// starts at every data point, so its candidate set includes all of greedy2's.
func TestComplexDominatesLocalFirstRound(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(t, rng, rng.IntRange(2, 25), norm.L2{}, rng.Uniform(0.5, 2.5))
		r2, err := LocalGreedy{}.Run(context.Background(), in, 1)
		if err != nil {
			t.Fatal(err)
		}
		r4, err := ComplexGreedy{}.Run(context.Background(), in, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r4.Gains[0] < r2.Gains[0]-1e-9 {
			t.Fatalf("trial %d: greedy4 round-1 %v < greedy2 %v", trial, r4.Gains[0], r2.Gains[0])
		}
	}
}

// Theorem 2: greedy2 achieves at least (1 − (1 − 1/n)^k)·f_opt. We verify
// against the weaker but computable bound using the best single point times
// k as an f_opt upper bound... instead, verify against a brute-force optimum
// on tiny instances where the candidate space is the points themselves.
func TestLocalGreedyTheorem2BoundTiny(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 30; trial++ {
		n := rng.IntRange(3, 8)
		in := randomInstance(t, rng, n, norm.L2{}, rng.Uniform(0.8, 2))
		k := rng.IntRange(1, 2)
		res, err := LocalGreedy{}.Run(context.Background(), in, k)
		if err != nil {
			t.Fatal(err)
		}
		// Brute-force point-restricted optimum.
		best := bruteForcePoints(in, k)
		// Theorem 2 is stated against the continuous optimum, which is
		// >= the point-restricted one; but the bound must certainly
		// hold against the point optimum scaled by the ratio.
		bound := theory.Approx2(n, k) * best
		if res.Total < bound-1e-9 {
			t.Fatalf("trial %d: greedy2 %v below Theorem-2 bound %v (opt %v)", trial, res.Total, bound, best)
		}
	}
}

// bruteForcePoints exhaustively maximizes f over k-subsets of data points.
func bruteForcePoints(in *reward.Instance, k int) float64 {
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

// Stronger than the paper's Theorem 2: restricted to point-valued centers,
// f is a monotone submodular set function over the ground set of points, and
// Algorithm 2 is exactly the Nemhauser–Wolsey–Fisher greedy for it (its
// round gain equals the marginal gain f(S∪{c})−f(S)). The classical bound
// therefore applies: greedy2 ≥ (1−(1−1/k)^k)·OPT_points ≥ (1−1/e)·OPT_points
// — far stronger than 1−(1−1/n)^k. Verified here against brute force.
func TestLocalGreedyClassicSubmodularBound(t *testing.T) {
	rng := xrand.New(181)
	for trial := 0; trial < 40; trial++ {
		n := rng.IntRange(3, 9)
		nm := []norm.Norm{norm.L1{}, norm.L2{}}[trial%2]
		in := randomInstance(t, rng, n, nm, rng.Uniform(0.5, 2.5))
		k := rng.IntRange(1, 3)
		res, err := LocalGreedy{Workers: 1}.Run(context.Background(), in, k)
		if err != nil {
			t.Fatal(err)
		}
		opt := bruteForcePoints(in, k)
		bound := theory.Approx1(k) * opt
		if res.Total < bound-1e-9 {
			t.Fatalf("trial %d: greedy2 %v below Nemhauser bound %v (opt %v, k=%d)",
				trial, res.Total, bound, opt, k)
		}
	}
}

func TestTieBreakByIndex(t *testing.T) {
	// Two isolated, identical-weight points far apart: both yield the same
	// round gain, so index 0 must win for greedy2 and greedy3.
	in := mustInstance(t,
		[]vec.V{vec.Of(0, 0), vec.Of(10, 10)},
		[]float64{2, 2}, norm.L2{}, 1)
	for _, a := range []Algorithm{LocalGreedy{}, SimpleGreedy{}} {
		res, err := a.Run(context.Background(), in, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Centers[0].ApproxEqual(vec.Of(0, 0), 1e-12) {
			t.Errorf("%s picked %v, want index-0 point", a.Name(), res.Centers[0])
		}
	}
}

func TestComplexGreedyMovesOffPoints(t *testing.T) {
	// Four unit-weight points on a small square with r = 1: the square's
	// center covers all four at fraction ≈ 0.434 (total ≈ 1.74), while any
	// corner yields 1 + 2·0.2 = 1.4, so greedy4 must leave the data.
	pts := []vec.V{vec.Of(0, 0), vec.Of(0.8, 0), vec.Of(0, 0.8), vec.Of(0.8, 0.8)}
	in := mustInstance(t, pts, []float64{1, 1, 1, 1}, norm.L2{}, 1.0)
	r4, err := ComplexGreedy{}.Run(context.Background(), in, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := LocalGreedy{}.Run(context.Background(), in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Total <= r2.Total {
		t.Fatalf("greedy4 %v did not beat greedy2 %v on triangle", r4.Total, r2.Total)
	}
	for _, p := range pts {
		if r4.Centers[0].ApproxEqual(p, 1e-9) {
			t.Fatalf("greedy4 stayed on data point %v", p)
		}
	}
}

func TestComplexGreedyOneNorm(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(t, rng, 15, norm.L1{}, 1.5)
		res, err := ComplexGreedy{}.Run(context.Background(), in, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		// Projection- and exact-LP-mode variants also run and are valid.
		for _, mode := range []BallMode{BallProjection, BallExactLP} {
			resM, err := ComplexGreedy{Mode: mode}.Run(context.Background(), in, 3)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if err := resM.Validate(); err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
		}
	}
}

func TestComplexGreedy3D(t *testing.T) {
	rng := xrand.New(19)
	pts := make([]vec.V, 20)
	ws := make([]float64, 20)
	for i := range pts {
		pts[i] = vec.Of(rng.Uniform(0, 4), rng.Uniform(0, 4), rng.Uniform(0, 4))
		ws[i] = float64(rng.IntRange(1, 5))
	}
	in := mustInstance(t, pts, ws, norm.L1{}, 1.5)
	res, err := ComplexGreedy{}.Run(context.Background(), in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Centers[0].Dim() != 3 {
		t.Fatalf("center dim = %d", res.Centers[0].Dim())
	}
}

func TestDeterminismAcrossWorkers(t *testing.T) {
	rng := xrand.New(23)
	in := randomInstance(t, rng, 30, norm.L2{}, 1.2)
	for _, a := range []struct {
		serial, parallel Algorithm
	}{
		{LocalGreedy{Workers: 1}, LocalGreedy{Workers: 8}},
		{ComplexGreedy{Workers: 1}, ComplexGreedy{Workers: 8}},
	} {
		rs, err := a.serial.Run(context.Background(), in, 4)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := a.parallel.Run(context.Background(), in, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rs.Total-rp.Total) > 1e-12 {
			t.Fatalf("%s: serial %v != parallel %v", a.serial.Name(), rs.Total, rp.Total)
		}
		for j := range rs.Centers {
			if !rs.Centers[j].ApproxEqual(rp.Centers[j], 1e-12) {
				t.Fatalf("%s: center %d differs across worker counts", a.serial.Name(), j)
			}
		}
	}
}

func TestKLargerThanN(t *testing.T) {
	// k > n is legal: extra rounds may contribute zero gain.
	in := mustInstance(t, []vec.V{vec.Of(0, 0), vec.Of(3, 3)}, []float64{1, 1}, norm.L2{}, 0.5)
	for _, a := range allAlgorithms() {
		res, err := a.Run(context.Background(), in, 5)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if math.Abs(res.Total-2) > 1e-9 {
			t.Errorf("%s: total = %v, want 2 (both points saturated)", a.Name(), res.Total)
		}
	}
}

func TestResultValidate(t *testing.T) {
	good := &Result{Centers: []vec.V{vec.Of(0, 0)}, Gains: []float64{2}, Total: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	bad := &Result{Centers: []vec.V{vec.Of(0, 0)}, Gains: []float64{2, 1}, Total: 3}
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	bad2 := &Result{Centers: []vec.V{vec.Of(0, 0)}, Gains: []float64{2}, Total: 5}
	if err := bad2.Validate(); err == nil {
		t.Error("total mismatch accepted")
	}
	bad3 := &Result{Centers: []vec.V{vec.Of(0, 0)}, Gains: []float64{-1}, Total: -1}
	if err := bad3.Validate(); err == nil {
		t.Error("negative gain accepted")
	}
}

func TestPrefixTotals(t *testing.T) {
	r := &Result{Gains: []float64{3, 2, 1}, Total: 6}
	got := r.PrefixTotals()
	want := []float64{3, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PrefixTotals = %v, want %v", got, want)
		}
	}
	if len((&Result{}).PrefixTotals()) != 0 {
		t.Error("empty result prefix not empty")
	}
}

// Incrementality: running an algorithm at k yields exactly the prefix of
// running it at k+1 — the property the k-sweep experiments rely on.
func TestPrefixMatchesSmallerK(t *testing.T) {
	rng := xrand.New(47)
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(t, rng, 20, norm.L2{}, 1.2)
		for _, a := range []Algorithm{LocalGreedy{Workers: 1}, SimpleGreedy{}, ComplexGreedy{Workers: 1}} {
			full, err := a.Run(context.Background(), in, 5)
			if err != nil {
				t.Fatal(err)
			}
			part, err := a.Run(context.Background(), in, 3)
			if err != nil {
				t.Fatal(err)
			}
			fp := full.PrefixTotals()
			if part.Total != fp[2] {
				t.Fatalf("%s: k=3 total %v != prefix %v", a.Name(), part.Total, fp[2])
			}
			for j := 0; j < 3; j++ {
				if !part.Centers[j].Equal(full.Centers[j]) {
					t.Fatalf("%s: center %d differs between k=3 and k=5 runs", a.Name(), j)
				}
			}
		}
	}
}

func TestPlacementAdapter(t *testing.T) {
	in := mustInstance(t, []vec.V{vec.Of(1, 1), vec.Of(3, 3)}, []float64{2, 3}, norm.L2{}, 1)
	p := Placement{Label: "fixed", Place: func(in *reward.Instance, k int) ([]vec.V, error) {
		return []vec.V{vec.Of(1, 1), vec.Of(3, 3)}[:k], nil
	}}
	if p.Name() != "fixed" {
		t.Errorf("name = %q", p.Name())
	}
	if (Placement{}).Name() != "placement" {
		t.Error("default name wrong")
	}
	res, err := p.Run(context.Background(), in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Total-5) > 1e-9 {
		t.Fatalf("total = %v, want 5 (both points saturated)", res.Total)
	}
	if _, err := p.Run(context.Background(), nil, 1); err == nil {
		t.Error("nil instance accepted")
	}
	if _, err := p.Run(context.Background(), in, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestRandomPlacement(t *testing.T) {
	rng := xrand.New(119)
	in := randomInstance(t, rng, 20, norm.L2{}, 1.5)
	a, err := RandomPlacement(7).Run(context.Background(), in, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomPlacement(7).Run(context.Background(), in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total {
		t.Fatal("same seed gave different totals")
	}
	c, err := RandomPlacement(8).Run(context.Background(), in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total == c.Total && a.Centers[0].Equal(c.Centers[0]) {
		t.Fatal("different seeds gave identical placements")
	}
	// Centers stay inside the data bounding box.
	lo, hi := in.Set.Bounds()
	for _, ctr := range a.Centers {
		for d := range ctr {
			if ctr[d] < lo[d]-1e-9 || ctr[d] > hi[d]+1e-9 {
				t.Fatalf("random center %v escaped bounds", ctr)
			}
		}
	}
	// Greedy must never lose to random placement.
	g, err := LocalGreedy{}.Run(context.Background(), in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Total < a.Total-1e-9 {
		t.Fatalf("greedy2 %v below random %v", g.Total, a.Total)
	}
}

func TestCentersClone(t *testing.T) {
	orig := []vec.V{vec.Of(1, 2)}
	cp := centersClone(orig)
	cp[0][0] = 9
	if orig[0][0] != 1 {
		t.Fatal("centersClone aliased storage")
	}
}
