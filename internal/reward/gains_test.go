package reward

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/spatial"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// checkRoundGains runs RoundGains and fails unless every out[a] has the
// bits of RoundGain(Point(a), y) and the sweep counted exactly N() gain
// evaluations, as N RoundGain calls would.
func checkRoundGains(t *testing.T, in *Instance, y []float64, label string) {
	t.Helper()
	m := obs.NewMetrics()
	in.SetCollector(m)
	got := make([]float64, in.N())
	for a := range got {
		got[a] = math.NaN() // a value the sweep failed to write shows
	}
	err := in.RoundGains(context.Background(), y, got)
	in.SetCollector(nil)
	if err != nil {
		t.Fatalf("%s: RoundGains: %v", label, err)
	}
	if c := m.Snapshot().Counters[obs.CtrGainEvals]; c != int64(in.N()) {
		t.Fatalf("%s: RoundGains counted %d gain evaluations, want %d", label, c, in.N())
	}
	for a, g := range got {
		if want := in.RoundGain(in.Set.Point(a), y); math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("%s: out[%d] = %v, RoundGain = %v (diff %g)", label, a, g, want, g-want)
		}
	}
}

// gainsPoints draws n points in [0, 4)^dim. About one point in five
// repeats an earlier point exactly, and one in four sits on a lattice of
// step r/4, so exact duplicates and pairs at exactly distance r occur.
func gainsPoints(rng *xrand.Rand, n, dim int, r float64) ([]vec.V, []float64) {
	pts := make([]vec.V, n)
	ws := make([]float64, n)
	for i := range pts {
		switch pick := rng.Intn(20); {
		case i > 0 && pick < 4:
			pts[i] = pts[rng.Intn(i)].Clone()
		case pick < 9:
			p := vec.New(dim)
			for d := range p {
				p[d] = float64(rng.IntRange(0, 15)) * r / 4
			}
			pts[i] = p
		default:
			p := vec.New(dim)
			for d := range p {
				p[d] = rng.Uniform(0, 4)
			}
			pts[i] = p
		}
		if rng.Intn(5) > 0 {
			ws[i] = float64(rng.IntRange(1, 5))
		}
	}
	return pts, ws
}

// TestRoundGainsMatchesRoundGain: the symmetric first-round sweep gives
// every point the bits of its own RoundGain, across L1, L2, L∞ and LP at
// p = 1.5 and 3, dims 1–5, with and without the grid, fresh and partly
// spent residuals, duplicates and zero weights.
func TestRoundGainsMatchesRoundGain(t *testing.T) {
	rng := xrand.New(211)
	for _, dim := range []int{1, 2, 3, 5} {
		for _, nm := range []norm.Norm{norm.L1{}, norm.L2{}, norm.LInf{}, norm.LP{Exp: 1.5}, norm.LP{Exp: 3}} {
			for _, finder := range []string{"none", "grid"} {
				for trial := 0; trial < 3; trial++ {
					r := []float64{0.5, 1, 1.75}[trial]
					pts, ws := gainsPoints(rng, rng.IntRange(2, 150), dim, r)
					in := mustInstance(t, pts, ws, nm, r)
					if finder == "grid" {
						g, err := spatial.NewGrid(pts, r)
						if err != nil {
							t.Fatal(err)
						}
						in.SetFinder(g)
					}
					label := nm.Name() + " " + finder
					y := in.NewResiduals()
					checkRoundGains(t, in, y, label+" fresh")
					for j := 0; j < 3; j++ {
						in.ApplyRound(in.Set.Point(rng.Intn(in.N())), y)
					}
					checkRoundGains(t, in, y, label+" spent")
				}
			}
		}
	}
}

// FuzzRoundGains decodes small instances (n ≤ 64) and holds RoundGains to
// RoundGain's bits with and without the grid. Byte 0 picks the dim (1–5)
// and the norm (L1, L2, L∞ or LP at p = 3), byte 1 the radius, byte 2 how
// many rounds to spend; then each point is dim coordinate bytes and a
// weight byte. An even coordinate byte is a lattice point k·r/4, so
// axis-aligned pairs at exactly r are common, and the byte 0x02 is −0; an
// odd one is an off-lattice value.
func FuzzRoundGains(f *testing.F) {
	f.Add([]byte{5, 7, 1, 0, 4, 1, 8, 2, 2, 1, 16, 1, 0, 0})
	f.Add([]byte{1, 3, 0, 0, 0, 1, 2, 0, 1, 0, 2, 3, 8, 8, 2, 9, 11, 4})
	f.Add([]byte{2, 15, 2, 4, 4, 3, 8, 4, 2, 4, 8, 1, 4, 0, 0, 5, 7, 0})
	f.Add([]byte{14, 0, 3, 1, 3, 5, 7, 9, 1, 0, 2, 0, 2, 0, 3, 1, 3, 5, 7, 9, 2})
	f.Add([]byte{16, 2, 1, 0, 6, 1, 4, 2, 3, 5, 0, 2, 8, 6, 9, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		dim := 1 + int(data[0])%5
		nm := []norm.Norm{norm.L1{}, norm.L2{}, norm.LInf{}, norm.LP{Exp: 3}}[int(data[0])/5%4]
		r := float64(1+data[1]%16) / 8
		spend := int(data[2] % 4)
		data = data[3:]
		n := len(data) / (dim + 1)
		if n > 64 {
			n = 64
		}
		if n == 0 {
			return
		}
		pts := make([]vec.V, n)
		ws := make([]float64, n)
		for i := range pts {
			row := data[i*(dim+1) : (i+1)*(dim+1)]
			p := vec.New(dim)
			for d, b := range row[:dim] {
				switch {
				case b == 0x02:
					p[d] = math.Copysign(0, -1)
				case b%2 == 0:
					p[d] = float64(int8(b)>>1) * r / 4
				default:
					p[d] = float64(int8(b)) / 37
				}
			}
			pts[i] = p
			ws[i] = float64(row[dim] % 5)
		}
		in := mustInstance(t, pts, ws, nm, r)
		y := in.NewResiduals()
		for j := 0; j < spend; j++ {
			in.ApplyRound(in.Set.Point(j%n), y)
		}
		g, err := spatial.NewGrid(pts, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, finder := range []NeighborFinder{nil, g} {
			in.SetFinder(finder)
			checkRoundGains(t, in, y, nm.Name())
		}
	})
}

// A done context stops RoundGains before any evaluation.
func TestRoundGainsCancelled(t *testing.T) {
	rng := xrand.New(223)
	pts, ws := gainsPoints(rng, 50, 2, 1)
	in := mustInstance(t, pts, ws, norm.L2{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := obs.NewMetrics()
	in.SetCollector(m)
	err := in.RoundGains(ctx, in.NewResiduals(), make([]float64, in.N()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := m.Snapshot().Counters[obs.CtrGainEvals]; c != 0 {
		t.Fatalf("a cancelled sweep counted %d gain evaluations", c)
	}
}

// TestWithCollector: the copy reports to its own collector only, shares the
// points and the finder, and leaves the original's collector alone.
func TestWithCollector(t *testing.T) {
	in := mustInstance(t, []vec.V{vec.Of(0, 0), vec.Of(0.5, 0), vec.Of(3, 3)}, []float64{1, 2, 3}, norm.L2{}, 1)
	grid, err := spatial.NewGrid(in.Set.Points(), in.Radius)
	if err != nil {
		t.Fatal(err)
	}
	in.SetFinder(grid)
	parent := obs.NewMetrics()
	in.SetCollector(parent)
	silent := in.WithCollector(nil)
	if silent.Collector() != nil || in.Collector() != obs.Collector(parent) {
		t.Fatal("WithCollector changed the original's collector or kept it on the copy")
	}
	if silent.Set != in.Set || silent.Finder() != in.Finder() {
		t.Fatal("WithCollector did not share the points and the finder")
	}
	y := in.NewResiduals()
	if a, b := silent.RoundGain(vec.Of(0, 0), y), in.RoundGain(vec.Of(0, 0), y); a != b {
		t.Fatalf("copy gain %v != original gain %v", a, b)
	}
	if c := parent.Snapshot().Counters[obs.CtrGainEvals]; c != 1 {
		t.Fatalf("original's collector counted %d gain evaluations, want 1", c)
	}
}
