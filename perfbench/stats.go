package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a reported tail percentile must leave above
// it, so that a single slow request cannot set the tail on its own.
const minBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank q-th percentile (0 < q <= 100): the
// smallest sample with at least q% of all samples at or below it. It is NaN
// for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[nearestRank(len(s), q)-1]
}

// nearestRank is the 1-based rank of the q-th percentile among n samples.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n) / 100))
	return min(max(r, 1), n)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail is the highest percentile, capped at the 99th, whose nearest rank
// leaves at least minBeyond samples above it. ok is false when even the
// median would not.
type tail struct {
	Q      float64 // the percentile reported
	Value  float64
	N      int // samples
	Beyond int // samples above the reported one
	OK     bool
}

func tailOf(xs []float64) tail {
	n := len(xs)
	t := tail{N: n}
	if n == 0 {
		return t
	}
	rank := nearestRank(n, 99)
	if n-rank < minBeyond {
		rank = n - minBeyond
	}
	if rank < nearestRank(n, 50) {
		return t
	}
	s := sortedCopy(xs)
	t.Q = 100 * float64(rank) / float64(n)
	t.Value = s[rank-1]
	t.Beyond = n - rank
	t.OK = true
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
