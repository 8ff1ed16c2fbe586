package norm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestKnownValues(t *testing.T) {
	v := vec.Of(3, -4)
	cases := []struct {
		n    Norm
		want float64
	}{
		{L1{}, 7},
		{L2{}, 5},
		{LInf{}, 4},
		{LP{Exp: 3}, math.Pow(27+64, 1.0/3)},
	}
	for _, c := range cases {
		if got := c.n.Len(v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s.Len(%v) = %v, want %v", c.n.Name(), v, got, c.want)
		}
	}
}

func TestDistMatchesLenOfDifference(t *testing.T) {
	a, b := vec.Of(1, 2, 3), vec.Of(4, 0, -1)
	for _, n := range []Norm{L1{}, L2{}, LInf{}, LP{Exp: 3}, LP{Exp: 1.5}} {
		want := n.Len(a.Sub(b))
		if got := n.Dist(a, b); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: Dist = %v, Len(a-b) = %v", n.Name(), got, want)
		}
	}
}

func TestPAndName(t *testing.T) {
	if (L1{}).P() != 1 || (L2{}).P() != 2 || !math.IsInf((LInf{}).P(), 1) {
		t.Error("P() values wrong")
	}
	if (L1{}).Name() != "1-norm" || (L2{}).Name() != "2-norm" {
		t.Error("Name() values wrong")
	}
	if (LP{Exp: 3}).Name() != "3-norm" {
		t.Errorf("LP name = %q", (LP{Exp: 3}).Name())
	}
}

func TestNewLPRejectsInvalid(t *testing.T) {
	for _, p := range []float64{0, 0.5, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewLP(p); err == nil {
			t.Errorf("NewLP(%v) accepted invalid exponent", p)
		}
	}
	if _, err := NewLP(1); err != nil {
		t.Errorf("NewLP(1): %v", err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"1-norm", "l1", "1"} {
		n, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if _, ok := n.(L1); !ok {
			t.Errorf("ByName(%q) = %T", name, n)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName accepted bogus name")
	}
}

func TestDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dist with mismatched dims did not panic")
		}
	}()
	L1{}.Dist(vec.Of(1), vec.Of(1, 2))
}

// sane clamps quick-generated components into a range where float error
// analysis is simple.
func sane(xs [3]float64) vec.V {
	v := vec.New(3)
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		v[i] = math.Mod(x, 1e6)
	}
	return v
}

// Property: every implementation satisfies the norm axioms.
func TestNormAxioms(t *testing.T) {
	norms := []Norm{L1{}, L2{}, LInf{}, LP{Exp: 1.5}, LP{Exp: 4}}
	for _, n := range norms {
		n := n
		t.Run(n.Name(), func(t *testing.T) {
			f := func(a, b [3]float64, s float64) bool {
				u, v := sane(a), sane(b)
				if math.IsNaN(s) || math.IsInf(s, 0) {
					s = 1
				}
				s = math.Mod(s, 100)
				// Non-negativity and definiteness.
				if n.Len(u) < 0 {
					return false
				}
				if n.Len(vec.New(3)) != 0 {
					return false
				}
				// Homogeneity.
				lhs, rhs := n.Len(u.Scale(s)), math.Abs(s)*n.Len(u)
				if math.Abs(lhs-rhs) > 1e-6*(1+rhs) {
					return false
				}
				// Triangle inequality.
				return n.Len(u.Add(v)) <= n.Len(u)+n.Len(v)+1e-6*(1+n.Len(u)+n.Len(v))
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: p-norms are monotonically non-increasing in p for a fixed vector.
func TestPNormMonotoneInP(t *testing.T) {
	f := func(a [3]float64) bool {
		v := sane(a)
		prev := math.Inf(1)
		for _, n := range []Norm{L1{}, LP{Exp: 1.5}, L2{}, LP{Exp: 3}, LP{Exp: 8}} {
			l := n.Len(v)
			if l > prev+1e-6*(1+prev) {
				return false
			}
			prev = l
		}
		// ∞-norm is the infimum.
		return LInf{}.Len(v) <= prev+1e-6*(1+prev)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
