package reward

import (
	"math"
	"testing"

	"repro/internal/norm"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// stubFinder appends a fixed conservative candidate list, which must be
// ascending like every NeighborFinder's.
type stubFinder struct{ idx []int }

func (s stubFinder) AppendNear(dst []int, _ vec.V) []int { return append(dst, s.idx...) }

func TestFinderPathsMatchFullScan(t *testing.T) {
	rng := xrand.New(167)
	for trial := 0; trial < 60; trial++ {
		in, centers := randomSetup(t, rng, norm.L2{})
		c := centers[0]
		// Conservative finder: all indices, ascending and each once.
		all := make([]int, in.N())
		for i := range all {
			all[i] = i
		}
		y1 := in.NewResiduals()
		gainPlain := in.RoundGain(c, y1)
		coveredPlain := in.CoveredIndices(c)
		applyPlain := in.ApplyRound(c, y1)

		in.SetFinder(stubFinder{idx: all})
		y2 := in.NewResiduals()
		if g := in.RoundGain(c, y2); g != gainPlain {
			t.Fatalf("trial %d: finder RoundGain %v != %v", trial, g, gainPlain)
		}
		coveredF := in.CoveredIndices(c)
		if len(coveredF) != len(coveredPlain) {
			t.Fatalf("trial %d: covered sets differ", trial)
		}
		for i := range coveredF {
			if coveredF[i] != coveredPlain[i] {
				t.Fatalf("trial %d: covered order differs", trial)
			}
		}
		applyF := in.ApplyRound(c, y2)
		if applyF != applyPlain {
			t.Fatalf("trial %d: finder ApplyRound %v != %v", trial, applyF, applyPlain)
		}
		for i := range y1 {
			if y1[i] != y2[i] {
				t.Fatalf("trial %d: residuals differ at %d", trial, i)
			}
		}
		in.SetFinder(nil)
	}
}

func TestFinderSubsetIsExactWhenConservative(t *testing.T) {
	// A finder returning only the truly-covered indices gives identical
	// gains (zero terms are the only ones skipped).
	in := mustInstance(t,
		[]vec.V{vec.Of(0, 0), vec.Of(0.5, 0), vec.Of(3, 3)},
		[]float64{1, 2, 1}, norm.L2{}, 1)
	c := vec.Of(0, 0)
	y := in.NewResiduals()
	want := in.RoundGain(c, y)
	in.SetFinder(stubFinder{idx: []int{0, 1}}) // covered points only
	if got := in.RoundGain(c, y); math.Abs(got-want) > 0 {
		t.Fatalf("subset finder gain %v != %v", got, want)
	}
}
