// Package theory provides the closed-form approximation-ratio bounds the
// paper derives: Theorem 1's 1 − (1 − 1/k)^k for the round-based heuristic
// and Theorem 2's 1 − (1 − 1/n)^k for the local greedy, plus the series
// needed to regenerate Fig. 2.
package theory

import (
	"fmt"
	"math"
)

// Approx1 returns Theorem 1's ratio 1 − (1 − 1/k)^k for k selected centers.
// It is ≥ 1 − 1/e for all k ≥ 1 and returns NaN for k < 1.
func Approx1(k int) float64 {
	if k < 1 {
		return math.NaN()
	}
	return 1 - math.Pow(1-1/float64(k), float64(k))
}

// Approx2 returns Theorem 2's ratio 1 − (1 − 1/n)^k for the local greedy
// with n points and k centers. It returns NaN when n < 1 or k < 1.
func Approx2(n, k int) float64 {
	if n < 1 || k < 1 {
		return math.NaN()
	}
	return 1 - math.Pow(1-1/float64(n), float64(k))
}

// Fig2Point is one x-position of the paper's Fig. 2: both bounds at a given
// number of centers k for a fixed population size n.
type Fig2Point struct {
	K       int
	Approx1 float64
	Approx2 float64
}

// Fig2Series tabulates both bounds for k = 1..kMax in an n-node environment
// (the paper plots n = 10 and n = 40).
func Fig2Series(n, kMax int) ([]Fig2Point, error) {
	if n < 1 || kMax < 1 {
		return nil, fmt.Errorf("theory: invalid n=%d kMax=%d", n, kMax)
	}
	out := make([]Fig2Point, 0, kMax)
	for k := 1; k <= kMax; k++ {
		out = append(out, Fig2Point{K: k, Approx1: Approx1(k), Approx2: Approx2(n, k)})
	}
	return out, nil
}
