package theory

import (
	"math"
	"testing"
)

func TestApprox1KnownValues(t *testing.T) {
	if got := Approx1(1); got != 1 {
		t.Errorf("Approx1(1) = %v, want 1", got)
	}
	if got := Approx1(2); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Approx1(2) = %v, want 0.75", got)
	}
	if got := Approx1(4); math.Abs(got-(1-math.Pow(0.75, 4))) > 1e-12 {
		t.Errorf("Approx1(4) = %v", got)
	}
	if !math.IsNaN(Approx1(0)) {
		t.Error("Approx1(0) not NaN")
	}
}

func TestApprox1AboveEBound(t *testing.T) {
	eBound := 1 - 1/math.E
	for k := 1; k <= 1000; k++ {
		if Approx1(k) < eBound-1e-12 {
			t.Fatalf("Approx1(%d) = %v below 1-1/e", k, Approx1(k))
		}
	}
	// Converges to 1-1/e from above.
	if math.Abs(Approx1(100000)-eBound) > 1e-4 {
		t.Errorf("Approx1 does not converge to 1-1/e: %v", Approx1(100000))
	}
}

func TestApprox2KnownValues(t *testing.T) {
	if got := Approx2(10, 1); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Approx2(10,1) = %v, want 0.1", got)
	}
	if got := Approx2(40, 4); math.Abs(got-(1-math.Pow(39.0/40, 4))) > 1e-12 {
		t.Errorf("Approx2(40,4) = %v", got)
	}
	if !math.IsNaN(Approx2(0, 1)) || !math.IsNaN(Approx2(1, 0)) {
		t.Error("invalid args not NaN")
	}
}

func TestApprox2MonotoneInK(t *testing.T) {
	for n := 2; n <= 50; n += 7 {
		prev := 0.0
		for k := 1; k <= 20; k++ {
			v := Approx2(n, k)
			if v <= prev {
				t.Fatalf("Approx2(%d,%d) = %v not increasing (prev %v)", n, k, v, prev)
			}
			prev = v
		}
	}
}

func TestApprox1DominatesApprox2(t *testing.T) {
	// Fig. 2's visual claim: approx1 is much larger than approx2 when n > k.
	for _, n := range []int{10, 40} {
		for k := 1; k <= n; k++ {
			if Approx1(k) < Approx2(n, k)-1e-12 {
				t.Fatalf("Approx1(%d) < Approx2(%d,%d)", k, n, k)
			}
		}
	}
}

func TestFig2Series(t *testing.T) {
	s, err := Fig2Series(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 8 || s[0].K != 1 || s[7].K != 8 {
		t.Fatalf("series shape wrong: %+v", s)
	}
	for _, p := range s {
		if p.Approx1 != Approx1(p.K) || p.Approx2 != Approx2(10, p.K) {
			t.Fatalf("series values wrong at k=%d", p.K)
		}
	}
	if _, err := Fig2Series(0, 5); err == nil {
		t.Error("invalid n accepted")
	}
	if _, err := Fig2Series(10, 0); err == nil {
		t.Error("invalid kMax accepted")
	}
}
