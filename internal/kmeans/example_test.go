package kmeans_test

import (
	"fmt"

	"repro/internal/kmeans"
	"repro/internal/pointset"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// Weighted k-means over two obvious groups: the centers land on the groups
// and the weighted mean respects user importance.
func ExampleKMeans() {
	users, _ := pointset.New(
		[]vec.V{vec.Of(0, 0), vec.Of(0.2, 0), vec.Of(3, 3), vec.Of(3.2, 3)},
		[]float64{3, 1, 1, 1})
	res, _ := kmeans.KMeans(users, 2, kmeans.Options{}, xrand.New(1))
	fmt.Println("clusters:", len(res.Centers))
	// The heavy user (weight 3 at the origin) pulls its cluster's center:
	// weighted mean of (0,0)×3 and (0.2,0)×1 is (0.05, 0).
	for _, c := range res.Centers {
		if c[0] < 1 {
			fmt.Printf("left center: %v\n", c)
		}
	}
	// Output:
	// clusters: 2
	// left center: (0.050, 0.000)
}
