// Package stats provides the summary statistics the experiment harness
// aggregates over trials: mean, sample variance, confidence intervals,
// extrema, Jain's fairness index, and simple fixed-width histograms.
package stats

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Summary condenses a sample of float64 observations.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased sample variance (0 when N < 2)
	Min, Max float64
}

// Summarize computes a Summary. It returns an error for an empty sample or
// non-finite observations.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, errors.New("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return Summary{}, fmt.Errorf("stats: non-finite observation %v", x)
		}
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N >= 2 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
	}
	return s, nil
}

// Stddev returns the sample standard deviation.
func (s Summary) Stddev() float64 { return math.Sqrt(s.Variance) }

// StdErr returns the standard error of the mean.
func (s Summary) StdErr() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Stddev() / math.Sqrt(float64(s.N))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval on the mean.
func (s Summary) CI95() float64 { return 1.96 * s.StdErr() }

// String renders "mean ± ci95 (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", s.Mean, s.CI95(), s.N)
}

// LinearFit returns the least-squares slope and intercept of y against x.
// Fitting log(time) against log(n) yields an empirical complexity exponent,
// which the complexity experiment uses to verify Theorems 3–4. It returns an
// error when fewer than two distinct x values are given or inputs are
// non-finite.
func LinearFit(x, y []float64) (slope, intercept float64, err error) {
	if len(x) != len(y) {
		return 0, 0, fmt.Errorf("stats: fit length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, 0, errors.New("stats: fit needs at least two points")
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return 0, 0, errors.New("stats: non-finite fit input")
		}
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	n := float64(len(x))
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return 0, 0, errors.New("stats: degenerate fit (all x equal)")
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) in (0, 1]; 1 means
// perfectly even allocation. It returns 0 for an empty or all-zero sample.
// The broadcast simulator reports it over per-user satisfaction.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Histogram is a fixed-width histogram over the closed range [Lo, Hi]: a
// sample exactly equal to Hi lands in the top bin rather than overflowing,
// so a histogram over [0, 1] counts a perfect score where readers expect it.
type Histogram struct {
	Lo, Hi  float64
	Counts  []int
	Under   int // observations below Lo
	Over    int // observations strictly above Hi
	NaN     int // NaN observations (neither binnable nor ordered)
	samples int
}

// NewHistogram builds a histogram with the given bin count. It returns an
// error when bins < 1 or the range is empty/invalid.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("stats: bins = %d must be >= 1", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: invalid histogram range [%v, %v)", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records one observation. x == Hi is clamped into the top bin (the
// bin-index computation would otherwise land on len(Counts) and the sample
// would vanish into the overflow count); NaN is tallied separately rather
// than fed into the bin arithmetic, where its int conversion is
// implementation-defined and can panic with an out-of-range index.
func (h *Histogram) Add(x float64) {
	h.samples++
	switch {
	case math.IsNaN(x):
		h.NaN++
	case x < h.Lo:
		h.Under++
	case x > h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) { // x == Hi, or Hi-ulp rounding up
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// N reports the total number of recorded observations.
func (h *Histogram) N() int { return h.samples }

// Render draws the histogram as ASCII rows, one per bin, with bars scaled to
// width characters.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	maxCount := 1
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	binW := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*width/maxCount)
		fmt.Fprintf(&b, "[%8.3f, %8.3f) %6d %s\n", h.Lo+float64(i)*binW, h.Lo+float64(i+1)*binW, c, bar)
	}
	if h.Under > 0 || h.Over > 0 || h.NaN > 0 {
		fmt.Fprintf(&b, "(under: %d, over: %d, nan: %d)\n", h.Under, h.Over, h.NaN)
	}
	return b.String()
}
