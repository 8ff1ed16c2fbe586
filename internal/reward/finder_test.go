package reward

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/spatial"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// stubFinder appends a fixed conservative candidate list, which must be
// ascending like every NeighborFinder's.
type stubFinder struct{ idx []int32 }

func (s stubFinder) AppendNear(dst []int32, _ vec.V) []int32 { return append(dst, s.idx...) }

func TestFinderPathsMatchFullScan(t *testing.T) {
	rng := xrand.New(167)
	for trial := 0; trial < 60; trial++ {
		in, centers := randomSetup(t, rng, norm.L2{})
		c := centers[0]
		// Conservative finder: all indices, ascending and each once.
		all := make([]int32, in.N())
		for i := range all {
			all[i] = int32(i)
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
	in.SetFinder(stubFinder{idx: []int32{0, 1}}) // covered points only
	if got := in.RoundGain(c, y); math.Abs(got-want) > 0 {
		t.Fatalf("subset finder gain %v != %v", got, want)
	}
}

// TestNewIndexed: NewIndexed attaches the collector and installs a grid
// over the instance's points at its radius exactly where spatial.Prunes
// holds. Grid hands back the installed grid itself; without one it builds
// a new grid each call and installs none.
func TestNewIndexed(t *testing.T) {
	for _, c := range []struct {
		n       int
		r       float64
		indexed bool
	}{{400, 0.5, true}, {60, 2, false}, {200, 1.5, false}} {
		set, err := pointset.GenUniform(c.n, pointset.PaperBox2D(), pointset.UnitWeight, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if got := spatial.Prunes(set.Coords(), set.Dim(), c.r); got != c.indexed {
			t.Fatalf("n = %d, r = %v: Prunes = %v, want %v", c.n, c.r, got, c.indexed)
		}
		col := obs.NewMetrics()
		in, err := NewIndexed(set, norm.L2{}, c.r, col)
		if err != nil {
			t.Fatal(err)
		}
		if in.Collector() != obs.Collector(col) {
			t.Errorf("n = %d, r = %v: collector not attached", c.n, c.r)
		}
		g, err := in.Grid()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := spatial.NewGrid(set.Points(), c.r)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range set.Points() {
			if got, want := g.AppendNear(nil, p), fresh.AppendNear(nil, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("n = %d, r = %v, point %d: Grid appends %v, a fresh grid %v", c.n, c.r, i, got, want)
			}
		}
		if !c.indexed {
			if f := in.Finder(); f != nil {
				t.Errorf("n = %d, r = %v: finder %T, want none", c.n, c.r, f)
			}
			if again, _ := in.Grid(); again == g || in.Finder() != nil {
				t.Errorf("n = %d, r = %v: Grid installed or kept the grid it built", c.n, c.r)
			}
			continue
		}
		if f, ok := in.Finder().(*spatial.Grid); !ok || f != g {
			t.Errorf("n = %d, r = %v: Grid() = %p, installed finder %v", c.n, c.r, g, in.Finder())
		}
	}
	if _, err := NewIndexed(nil, norm.L2{}, 1, nil); err == nil {
		t.Error("nil set accepted")
	}
	set, err := pointset.New([]vec.V{vec.Of(0, 0)}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndexed(set, norm.L2{}, 0, nil); err == nil {
		t.Error("zero radius accepted")
	}
}
