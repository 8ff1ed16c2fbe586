package reward

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/norm"
	"repro/internal/spatial"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// The reference evaluations: the paper's per-point definitions as plain
// loops over Norm.Dist and every point in index order, with no kernel and
// no finder. Every Instance and Evaluator method must give their bits.

// refCoverage is Eq. 1's fraction [1 − d/r]_+, which is 0 unless d < r.
func refCoverage(in *Instance, c vec.V, i int) float64 {
	d := in.Norm.Dist(c, in.Set.Point(i))
	if !(d < in.Radius) {
		return 0
	}
	return 1 - d/in.Radius
}

// refRoundGain is Σ_i w_i·min(cov_i, y_i).
func refRoundGain(in *Instance, c vec.V, y []float64) float64 {
	var g float64
	for i := 0; i < in.N(); i++ {
		z := refCoverage(in, c, i)
		if yi := y[i]; z > yi {
			z = yi
		}
		g += in.Set.Weight(i) * z
	}
	return g
}

// refObjective is Eq. 7, point-major, each point's fraction capped at 1 as
// soon as it saturates.
func refObjective(in *Instance, centers []vec.V) float64 {
	var total float64
	for i := 0; i < in.N(); i++ {
		var frac float64
		for _, c := range centers {
			frac += refCoverage(in, c, i)
			if frac >= 1 {
				frac = 1
				break
			}
		}
		total += in.Set.Weight(i) * frac
	}
	return total
}

// refApplyRound commits c to y point by point and returns the round gain.
func refApplyRound(in *Instance, c vec.V, y []float64) float64 {
	var gain float64
	for i := 0; i < in.N(); i++ {
		zi := refCoverage(in, c, i)
		if yi := y[i]; zi > yi {
			zi = yi
		}
		y[i] -= zi
		if y[i] < 0 {
			y[i] = 0
		}
		gain += in.Set.Weight(i) * zi
	}
	return gain
}

// refCoveredIndices lists the points with coverage > 0.
func refCoveredIndices(in *Instance, c vec.V) []int {
	var idx []int
	for i := 0; i < in.N(); i++ {
		if refCoverage(in, c, i) > 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// refRow is an evaluator's coverage row for c.
func refRow(in *Instance, c vec.V) []float64 {
	row := make([]float64, in.N())
	for i := range row {
		row[i] = refCoverage(in, c, i)
	}
	return row
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBatchedScalarEquivalence is the golden gate for the kernel path:
// across norms × dims × with/without a grid finder × random seeds,
// RoundGain, Objective, ApplyRound (its gain and every residual),
// CoveredIndices and the evaluator's coverage rows, sums and objectives
// must equal the reference loops above with ==, not within-epsilon. The
// kernels are only allowed to exist because they can never change a
// published experiment number.
func TestBatchedScalarEquivalence(t *testing.T) {
	rng := xrand.New(97)
	for _, dim := range []int{1, 2, 3, 8} {
		for _, nm := range []norm.Norm{norm.L1{}, norm.L2{}, norm.LInf{}, norm.LP{Exp: 3}} {
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
					in := mustInstance(t, pts, ws, nm, r)
					if useGrid {
						g, err := spatial.NewGrid(pts, r)
						if err != nil {
							t.Fatal(err)
						}
						in.SetFinder(g)
					}
					label := fmt.Sprintf("%s dim %d grid=%v", nm.Name(), dim, useGrid)

					y := in.NewResiduals()
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
						if got, want := in.RoundGain(c, y), refRoundGain(in, c, y); !sameBits(got, want) {
							t.Fatalf("%s: RoundGain %v, reference %v (diff %g)", label, got, want, got-want)
						}
						if got, want := in.CoveredIndices(c), refCoveredIndices(in, c); !slices.Equal(got, want) || (got == nil) != (want == nil) {
							t.Fatalf("%s: CoveredIndices %v, reference %v", label, got, want)
						}
					}
					if got, want := in.Objective(queries), refObjective(in, queries); !sameBits(got, want) {
						t.Fatalf("%s: Objective %v, reference %v (diff %g)", label, got, want, got-want)
					}
					// Commit every query in turn, so later rounds meet
					// spent residuals.
					ky, ry := slices.Clone(y), slices.Clone(y)
					for q, c := range queries {
						got, want := in.ApplyRound(c, ky), refApplyRound(in, c, ry)
						if !sameBits(got, want) {
							t.Fatalf("%s: ApplyRound %d gain %v, reference %v", label, q, got, want)
						}
						for i := range ky {
							if !sameBits(ky[i], ry[i]) {
								t.Fatalf("%s: ApplyRound %d left y[%d] = %v, reference %v", label, q, i, ky[i], ry[i])
							}
						}
					}

					// The evaluator against reference rows and sums driven
					// through the same Add/Replace arithmetic.
					e, err := NewEvaluator(in, queries[:3])
					if err != nil {
						t.Fatal(err)
					}
					rows := make([][]float64, 3)
					frac := make([]float64, n)
					for j, c := range queries[:3] {
						rows[j] = refRow(in, c)
						for i, v := range rows[j] {
							frac[i] += v
						}
					}
					checkEvaluator(t, label+" fresh", e, rows, frac)
					if got, want := e.Objective(), refObjective(in, queries[:3]); !sameBits(got, want) {
						t.Fatalf("%s: evaluator objective %v, reference %v", label+" fresh", got, want)
					}
					for _, c := range queries[3:] {
						j := rng.Intn(e.K())
						row := refRow(in, c)
						var want float64
						for i := range frac {
							f := frac[i] - rows[j][i] + row[i]
							if f > 1 {
								f = 1
							}
							want += ws[i] * f
						}
						got, err := e.ObjectiveIfReplaced(j, c)
						if err != nil {
							t.Fatal(err)
						}
						if !sameBits(got, want) {
							t.Fatalf("%s: hypothetical objective %v, reference %v", label+" replace", got, want)
						}
						if err := e.Replace(j, c); err != nil {
							t.Fatal(err)
						}
						for i := range frac {
							frac[i] += row[i] - rows[j][i]
						}
						rows[j] = row
						checkEvaluator(t, label+" replaced", e, rows, frac)
					}
				}
			}
		}
	}
}

// checkEvaluator fails unless e holds exactly the reference coverage rows
// and fraction sums, and its objective is the capped weighted sum of them.
func checkEvaluator(t *testing.T, label string, e *Evaluator, rows [][]float64, frac []float64) {
	t.Helper()
	for j, row := range rows {
		for i, v := range row {
			if !sameBits(e.cov[j][i], v) {
				t.Fatalf("%s: coverage row %d point %d = %v, reference %v", label, j, i, e.cov[j][i], v)
			}
		}
	}
	var want float64
	for i, f := range frac {
		if !sameBits(e.frac[i], f) {
			t.Fatalf("%s: fraction sum %d = %v, reference %v", label, i, e.frac[i], f)
		}
		if f > 1 {
			f = 1
		}
		want += e.in.Set.Weight(i) * f
	}
	if got := e.Objective(); !sameBits(got, want) {
		t.Fatalf("%s: objective %v, reference %v", label, got, want)
	}
}
