package reward

import (
	"testing"

	"repro/internal/norm"
	"repro/internal/spatial"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// equivNorms builds the norm matrix for a dimension: the three kernel norms
// plus two fallback-path norms (general p = 3 and a scaled L2), so the test
// also proves SetBatch(true) is a no-op for norms without kernels.
func equivNorms(t *testing.T, dim int) []norm.Norm {
	t.Helper()
	scales := vec.New(dim)
	for d := range scales {
		scales[d] = 0.5 + 0.25*float64(d)
	}
	sc, err := norm.NewScaled(norm.L2{}, scales)
	if err != nil {
		t.Fatal(err)
	}
	return []norm.Norm{norm.L1{}, norm.L2{}, norm.LInf{}, norm.LP{Exp: 3}, sc}
}

// TestBatchedScalarEquivalence is the golden gate for the batched fast path:
// across norms × dims × with/without a grid finder × random seeds, batched
// and scalar RoundGain and Objective (and the evaluator built on them) must
// agree with ==, not within-epsilon. The fast path is only allowed to exist
// because it can never change a published experiment number.
func TestBatchedScalarEquivalence(t *testing.T) {
	rng := xrand.New(97)
	for _, dim := range []int{1, 2, 3, 8} {
		for _, nm := range equivNorms(t, dim) {
			for _, useGrid := range []bool{false, true} {
				for trial := 0; trial < 4; trial++ {
					n := rng.IntRange(5, 120)
					r := rng.Uniform(0.3, 2.5)
					pts := make([]vec.V, n)
					ws := make([]float64, n)
					for i := range pts {
						p := vec.New(dim)
						for d := range p {
							p[d] = rng.Uniform(0, 4)
						}
						pts[i] = p
						ws[i] = float64(rng.IntRange(1, 5))
					}
					scalar := mustInstance(t, pts, ws, nm, r)
					scalar.SetBatch(false)
					batched := mustInstance(t, pts, ws, nm, r)
					if useGrid {
						g, err := spatial.NewGrid(pts, r)
						if err != nil {
							t.Fatal(err)
						}
						scalar.SetFinder(g)
						batched.SetFinder(g)
					}

					y := scalar.NewResiduals()
					for i := range y {
						y[i] = rng.Uniform(0, 1)
					}
					queries := []vec.V{pts[0].Clone()}
					for q := 0; q < 6; q++ {
						c := vec.New(dim)
						for d := range c {
							c[d] = rng.Uniform(-1, 5) // interior and exterior
						}
						queries = append(queries, c)
					}
					for _, c := range queries {
						sg := scalar.RoundGain(c, y)
						bg := batched.RoundGain(c, y)
						if sg != bg {
							t.Fatalf("%s dim %d grid=%v: RoundGain scalar %v != batched %v (diff %g)",
								nm.Name(), dim, useGrid, sg, bg, sg-bg)
						}
					}
					so := scalar.Objective(queries)
					bo := batched.Objective(queries)
					if so != bo {
						t.Fatalf("%s dim %d grid=%v: Objective scalar %v != batched %v (diff %g)",
							nm.Name(), dim, useGrid, so, bo, so-bo)
					}

					// Evaluator Add/Replace/ObjectiveIfReplaced route
					// through the same kernels; drive both in lockstep.
					se, err := NewEvaluator(scalar, queries[:3])
					if err != nil {
						t.Fatal(err)
					}
					be, err := NewEvaluator(batched, queries[:3])
					if err != nil {
						t.Fatal(err)
					}
					if so, bo := se.Objective(), be.Objective(); so != bo {
						t.Fatalf("%s dim %d: evaluator objective scalar %v != batched %v", nm.Name(), dim, so, bo)
					}
					for _, c := range queries[3:] {
						j := rng.Intn(se.K())
						sh, err := se.ObjectiveIfReplaced(j, c)
						if err != nil {
							t.Fatal(err)
						}
						bh, err := be.ObjectiveIfReplaced(j, c)
						if err != nil {
							t.Fatal(err)
						}
						if sh != bh {
							t.Fatalf("%s dim %d: hypothetical scalar %v != batched %v", nm.Name(), dim, sh, bh)
						}
						if err := se.Replace(j, c); err != nil {
							t.Fatal(err)
						}
						if err := be.Replace(j, c); err != nil {
							t.Fatal(err)
						}
						if so, bo := se.Objective(), be.Objective(); so != bo {
							t.Fatalf("%s dim %d: post-replace scalar %v != batched %v", nm.Name(), dim, so, bo)
						}
					}
				}
			}
		}
	}
}
