package v1

import (
	"math"
	"testing"

	"repro/internal/pointset"
	"repro/internal/vec"
)

// TestValidateCellBound pins the MaxCells edge for both lattice-shaped
// options, including values whose power overflows int, as Resolve checks
// them.
func TestValidateCellBound(t *testing.T) {
	cases := []struct {
		name string
		opts SolveOptions
		dim  int
		ok   bool
	}{
		{"default halo", SolveOptions{Shards: 2}, 2, true},
		{"no halo", SolveOptions{Shards: 2, Halo: -1}, 40, true},
		{"halo 127 in 2-D: 255^2 cells", SolveOptions{Shards: 2, Halo: 127}, 2, true},
		{"halo 128 in 2-D: 257^2 cells", SolveOptions{Shards: 2, Halo: 128}, 2, false},
		{"halo 1 in 10-D: 3^10 cells", SolveOptions{Shards: 2, Halo: 1}, 10, true},
		{"halo 1 in 11-D: 3^11 cells", SolveOptions{Shards: 2, Halo: 1}, 11, false},
		{"halo near MaxInt", SolveOptions{Halo: math.MaxInt}, 1, false},
		{"grid_per 256 in 2-D", SolveOptions{GridPer: 256}, 2, true},
		{"grid_per 257 in 2-D", SolveOptions{GridPer: 257}, 2, false},
		{"grid_per 65536 in 1-D", SolveOptions{GridPer: MaxCells}, 1, true},
		{"grid_per 2^30 in 3-D overflows int", SolveOptions{GridPer: 1 << 30}, 3, false},
		{"grid_per MaxInt", SolveOptions{GridPer: math.MaxInt}, 2, false},
	}
	for _, tc := range cases {
		set, err := pointset.New([]vec.V{vec.New(tc.dim)}, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		req := SolveRequest{Instance: set, Radius: 1, K: 1, Options: tc.opts}
		_, _, e := req.Resolve()
		if (e == nil) != tc.ok {
			t.Errorf("%s: Resolve in %d-D = %v, want ok = %v", tc.name, tc.dim, e, tc.ok)
		}
		if e != nil && e.Code != CodeBadRequest {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, CodeBadRequest)
		}
	}
}
