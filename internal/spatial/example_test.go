package spatial_test

import (
	"fmt"

	"repro/internal/spatial"
	"repro/internal/vec"
)

// A radius-1 grid over three points: querying near the first two appends
// exactly them, in ascending order; the far point never appears.
func ExampleGrid_AppendNear() {
	pts := []vec.V{vec.Of(0, 0), vec.Of(0.5, 0.5), vec.Of(9, 9)}
	g, _ := spatial.NewGrid(pts, 1)
	near := g.AppendNear(nil, vec.Of(0.2, 0.2))
	fmt.Println(near)
	// Output:
	// [0 1]
}
