package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSummarizeKnown(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample variance of 1..4 is 5/3.
	if math.Abs(s.Variance-5.0/3) > 1e-12 {
		t.Fatalf("variance = %v, want 5/3", s.Variance)
	}
	if math.Abs(s.Stddev()-math.Sqrt(5.0/3)) > 1e-12 {
		t.Errorf("stddev = %v", s.Stddev())
	}
	if s.CI95() <= 0 {
		t.Errorf("CI95 = %v", s.CI95())
	}
	if !strings.Contains(s.String(), "n=4") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Variance != 0 || s.Mean != 7 || s.CI95() != 0 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummarizeRejects(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := Summarize([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := Summarize([]float64{math.Inf(1)}); err == nil {
		t.Error("Inf accepted")
	}
}

func TestLinearFit(t *testing.T) {
	// Exact line y = 3x + 1.
	slope, icept, err := LinearFit([]float64{0, 1, 2, 3}, []float64{1, 4, 7, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-3) > 1e-12 || math.Abs(icept-1) > 1e-12 {
		t.Fatalf("fit = %v, %v", slope, icept)
	}
	// Log-log of a quadratic has slope 2.
	xs, ys := []float64{}, []float64{}
	for _, n := range []float64{10, 20, 40, 80} {
		xs = append(xs, math.Log(n))
		ys = append(ys, math.Log(5*n*n))
	}
	slope, _, err = LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-9 {
		t.Fatalf("log-log slope = %v, want 2", slope)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := LinearFit([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("degenerate x accepted")
	}
	if _, _, err := LinearFit([]float64{1, math.NaN()}, []float64{1, 2}); err == nil {
		t.Error("NaN accepted")
	}
}

func TestJainIndex(t *testing.T) {
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Error("degenerate Jain not 0")
	}
	if got := JainIndex([]float64{2, 2, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("even Jain = %v", got)
	}
	// One user gets everything: index = 1/n.
	if got := JainIndex([]float64{5, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("skewed Jain = %v, want 0.25", got)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.9, 2, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.N() != 7 {
		t.Errorf("N = %d", h.N())
	}
	if h.Under != 1 || h.Over != 1 {
		t.Errorf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Errorf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 2
		t.Errorf("bin1 = %d", h.Counts[1])
	}
	if h.Counts[4] != 2 { // 9.99 and 10 (== Hi clamps into the top bin)
		t.Errorf("bin4 = %d", h.Counts[4])
	}
	out := h.Render(20)
	if !strings.Contains(out, "#") || !strings.Contains(out, "under: 1") {
		t.Errorf("render = %q", out)
	}
}

// Boundary handling of Add: x == Hi must land in the top bin (the raw bin
// computation yields index == len(Counts) and used to leak the sample into
// the overflow count), x == Lo in the bottom bin, and non-finite samples
// must neither panic nor corrupt a bin.
func TestHistogramEdges(t *testing.T) {
	const bins = 4
	for _, tc := range []struct {
		name  string
		x     float64
		bin   int // expected Counts index, or -1
		under int
		over  int
		nan   int
	}{
		{name: "at-lo", x: 0, bin: 0},
		{name: "interior", x: 2.5, bin: 1},
		{name: "at-hi", x: 8, bin: bins - 1},
		{name: "just-below-hi", x: math.Nextafter(8, 0), bin: bins - 1},
		{name: "just-above-hi", x: math.Nextafter(8, 9), bin: -1, over: 1},
		{name: "below-lo", x: -0.001, bin: -1, under: 1},
		{name: "+inf", x: math.Inf(1), bin: -1, over: 1},
		{name: "-inf", x: math.Inf(-1), bin: -1, under: 1},
		{name: "nan", x: math.NaN(), bin: -1, nan: 1},
	} {
		h, err := NewHistogram(0, 8, bins)
		if err != nil {
			t.Fatal(err)
		}
		h.Add(tc.x)
		if h.N() != 1 {
			t.Errorf("%s: N = %d", tc.name, h.N())
		}
		if h.Under != tc.under || h.Over != tc.over || h.NaN != tc.nan {
			t.Errorf("%s: under/over/nan = %d/%d/%d, want %d/%d/%d",
				tc.name, h.Under, h.Over, h.NaN, tc.under, tc.over, tc.nan)
		}
		total := 0
		for b, c := range h.Counts {
			total += c
			want := 0
			if b == tc.bin {
				want = 1
			}
			if c != want {
				t.Errorf("%s: Counts[%d] = %d, want %d", tc.name, b, c, want)
			}
		}
		if tc.bin >= 0 && total != 1 {
			t.Errorf("%s: sample dropped (bin total %d)", tc.name, total)
		}
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("bins=0 accepted")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewHistogram(6, 5, 3); err == nil {
		t.Error("inverted range accepted")
	}
}
