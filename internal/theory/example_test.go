package theory_test

import (
	"fmt"
	"math"

	"repro/internal/theory"
)

// Theorem 1's round-based bound stays above 1 − 1/e for every k, while
// Theorem 2's local-greedy bound starts tiny when n ≫ k — the contrast the
// paper's Fig. 2 draws.
func Example() {
	fmt.Printf("approx1(4)     = %.4f\n", theory.Approx1(4))
	fmt.Printf("approx2(40, 4) = %.4f\n", theory.Approx2(40, 4))
	fmt.Printf("1 - 1/e        = %.4f\n", 1-1/math.E)
	// Output:
	// approx1(4)     = 0.6836
	// approx2(40, 4) = 0.0963
	// 1 - 1/e        = 0.6321
}
