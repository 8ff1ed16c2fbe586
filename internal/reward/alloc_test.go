//go:build !race

// The race detector makes sync.Pool drop a share of Put items on purpose,
// so pooled scratch is reallocated at random; the guard only holds without
// it.

package reward

import (
	"context"
	"testing"

	"repro/internal/norm"
	"repro/internal/spatial"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// TestRoundKernelsAllocFree guards the round kernel: with a warm grid
// finder (its window cache filled, the scratch pool primed), RoundGain,
// ApplyRound and the first-round sweep RoundGains allocate nothing per
// call. So does the finder-free full scan.
func TestRoundKernelsAllocFree(t *testing.T) {
	rng := xrand.New(59)
	pts := make([]vec.V, 600)
	ws := make([]float64, len(pts))
	for i := range pts {
		pts[i] = vec.Of(rng.Uniform(0, 10), rng.Uniform(0, 10))
		ws[i] = float64(rng.IntRange(1, 4))
	}
	in := mustInstance(t, pts, ws, norm.L2{}, 0.7)
	grid, err := spatial.NewGrid(pts, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	c := in.Set.Point(17)
	ctx := context.Background()
	for _, finder := range []bool{true, false} {
		if finder {
			in.SetFinder(grid)
		} else {
			in.SetFinder(nil)
		}
		y := in.NewResiduals()
		in.RoundGain(c, y)
		in.ApplyRound(c, in.NewResiduals())
		if a := testing.AllocsPerRun(100, func() { in.RoundGain(c, y) }); a != 0 {
			t.Errorf("finder=%v: RoundGain allocates %v per call", finder, a)
		}
		if a := testing.AllocsPerRun(100, func() { in.ApplyRound(c, y) }); a != 0 {
			t.Errorf("finder=%v: ApplyRound allocates %v per call", finder, a)
		}
		gains := make([]float64, in.N())
		if a := testing.AllocsPerRun(10, func() { _ = in.RoundGains(ctx, y, gains) }); a != 0 {
			t.Errorf("finder=%v: RoundGains allocates %v per call", finder, a)
		}
	}
}
