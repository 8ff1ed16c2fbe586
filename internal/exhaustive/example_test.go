package exhaustive_test

import (
	"context"
	"fmt"

	"repro/internal/exhaustive"
	"repro/internal/norm"
	"repro/internal/pointset"
	"repro/internal/reward"
	"repro/internal/solver"
	"repro/internal/vec"
)

// The exhaustive baseline enumerates every k-subset of candidate centers
// exactly — the denominator of the paper's approximation ratios. Two
// separated pairs with k = 2 are solved by centering on each pair.
func ExampleSolve() {
	users, _ := pointset.UnitWeights([]vec.V{
		vec.Of(0, 0), vec.Of(0.2, 0),
		vec.Of(3, 3), vec.Of(3.2, 3),
	})
	in, _ := reward.NewInstance(users, norm.L2{}, 1)
	res, _ := exhaustive.Solve(context.Background(), in, 2, solver.Options{})
	fmt.Printf("optimum %.1f of %.1f achievable\n", res.Total, users.TotalWeight())
	fmt.Println("subsets enumerated:", exhaustive.Combinations(4, 2))
	// Output:
	// optimum 3.6 of 4.0 achievable
	// subsets enumerated: 6
}
