package norm

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// flatten lays points out row-major, the layout pointset.Set.Coords serves.
func flatten(pts []vec.V, dim int) []float64 {
	flat := make([]float64, 0, len(pts)*dim)
	for _, p := range pts {
		flat = append(flat, p...)
	}
	return flat
}

func randBatchPoints(rng *xrand.Rand, n, dim int) []vec.V {
	pts := make([]vec.V, n)
	for i := range pts {
		p := vec.New(dim)
		for d := range p {
			p[d] = rng.Uniform(-5, 5)
		}
		pts[i] = p
	}
	return pts
}

// withinNorms are the norms every Within test runs: the three two-pass
// kernels and LP's per-row loop at an exponent on each side of 2.
var withinNorms = []Norm{L1{}, L2{}, LInf{}, LP{Exp: 1.5}, LP{Exp: 3}}

// checkWithin runs nm.Within from c over the rows of coords (all of them
// with idx nil, else those idx names) and fails unless it returns exactly
// the rows with Dist < r, in ascending position order, each with Dist's
// bits.
func checkWithin(t *testing.T, nm Norm, c vec.V, coords []float64, dim int, idx []int32, r float64) {
	t.Helper()
	var wantPos []int32
	var wantDist []float64
	rows := len(coords) / dim
	if idx != nil {
		rows = len(idx)
	}
	for j := 0; j < rows; j++ {
		i := j
		if idx != nil {
			i = int(idx[j])
		}
		if d := nm.Dist(c, vec.V(coords[i*dim:(i+1)*dim])); d < r {
			wantPos, wantDist = append(wantPos, int32(j)), append(wantDist, d)
		}
	}
	pos, dist := nm.Within(c, coords, dim, idx, r, nil, nil)
	if len(pos) != len(wantPos) || len(dist) != len(pos) {
		t.Fatalf("%s dim %d r=%v idx=%v c=%v: %d rows (%d distances), want %d: pos %v, want %v",
			nm.Name(), dim, r, idx != nil, c, len(pos), len(dist), len(wantPos), pos, wantPos)
	}
	for k := range pos {
		if pos[k] != wantPos[k] || math.Float64bits(dist[k]) != math.Float64bits(wantDist[k]) {
			t.Fatalf("%s dim %d r=%v idx=%v c=%v: entry %d = (%d, %v), want (%d, %v)",
				nm.Name(), dim, r, idx != nil, c, k, pos[k], dist[k], wantPos[k], wantDist[k])
		}
	}
}

// Property: Within returns exactly the rows strictly within r, each with
// Dist's bits (==, not within-epsilon), for every norm, across the
// specialized and generic dims, over all rows and over a random ascending
// subset read through idx.
func TestWithinMatchesDist(t *testing.T) {
	rng := xrand.New(31)
	for _, nm := range withinNorms {
		for _, dim := range []int{1, 2, 3, 8} {
			for trial := 0; trial < 40; trial++ {
				n := rng.IntRange(1, 64)
				coords := flatten(randBatchPoints(rng, n, dim), dim)
				c := randBatchPoints(rng, 1, dim)[0]
				if trial%4 == 0 { // a center on a row: a coincident row
					c = vec.Of(coords[:dim]...)
				}
				r := rng.Uniform(0.5, 6)
				checkWithin(t, nm, c, coords, dim, nil, r)
				idx := []int32{} // empty, not nil, when no row is drawn
				for i := 0; i < n; i++ {
					if rng.Float64() < 0.5 {
						idx = append(idx, int32(i))
					}
				}
				checkWithin(t, nm, c, coords, dim, idx, r)
			}
		}
	}
}

// The edges of the kernels, for every norm: coincident rows,
// |d0| == |d1| ties, rows at exactly r along an axis and on a diagonal,
// signed zeros, subnormal differences, and non-finite rows.
func TestWithinEdges(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	coords := []float64{
		0, 0, // coincident
		math.Copysign(0, -1), 0, // a signed zero
		0.5, 0.5, // a tie |d0| == |d1|
		-0.5, 0.5, // a tie with signs
		1, 0, // at exactly r = 1 along an axis
		0, -1,
		1, 1, // the Chebyshev corner at r
		tiny, -tiny, // subnormal differences
		0.75, 0.25,
		2, 0.1,
		math.Inf(1), 0,
		math.NaN(), 0,
		1e308, -1e308,
	}
	for _, nm := range withinNorms {
		for _, c := range []vec.V{vec.Of(0, 0), vec.Of(math.Copysign(0, -1), tiny), vec.Of(-1e308, 1e308)} {
			for _, r := range []float64{1, 0.5, math.Sqrt(0.5), tiny, math.Inf(1), 0, -1, math.NaN()} {
				checkWithin(t, nm, c, coords, 2, nil, r)
				checkWithin(t, nm, c, coords, 2, []int32{0, 2, 4, 6, 8, 10, 11}, r)
				checkWithin(t, nm, c[:1], coords, 1, nil, r)
			}
		}
	}
}

// Property: Within appends after what pos and dist already hold, leaves
// that untouched, and reads the rows idx names in idx's order.
func TestWithinAppends(t *testing.T) {
	rng := xrand.New(37)
	for _, nm := range withinNorms {
		for _, dim := range []int{1, 2, 3, 8} {
			coords := flatten(randBatchPoints(rng, 40, dim), dim)
			c := randBatchPoints(rng, 1, dim)[0]
			r := 4.0
			all, allDist := nm.Within(c, coords, dim, nil, r, nil, nil)
			pos, dist := nm.Within(c, coords, dim, nil, r, []int32{-7}, []float64{-7})
			if pos[0] != -7 || dist[0] != -7 || len(pos) != len(all)+1 {
				t.Fatalf("%s dim %d: prefix lost or rows changed: %v", nm.Name(), dim, pos)
			}
			for k := range all {
				if pos[k+1] != all[k] || dist[k+1] != allDist[k] {
					t.Fatalf("%s dim %d: appended entry %d = (%d, %v), want (%d, %v)",
						nm.Name(), dim, k, pos[k+1], dist[k+1], all[k], allDist[k])
				}
			}
			// Every row through idx, in reverse: position j is row 39 − j.
			idx := make([]int32, 40)
			for j := range idx {
				idx[j] = int32(39 - j)
			}
			rev, revDist := nm.Within(c, coords, dim, idx, r, nil, nil)
			if len(rev) != len(all) {
				t.Fatalf("%s dim %d: %d rows through idx, want %d", nm.Name(), dim, len(rev), len(all))
			}
			for k, p := range rev {
				want := len(all) - 1 - k
				if idx[p] != all[want] || revDist[k] != allDist[want] {
					t.Fatalf("%s dim %d: idx entry %d is row %d (%v), want row %d (%v)",
						nm.Name(), dim, k, idx[p], revDist[k], all[want], allDist[want])
				}
			}
		}
	}
}

// The coincident-point and overflow-guard edges of the L2 kernel.
func TestBatchL2Edges(t *testing.T) {
	c := vec.Of(1e155, -1e155)
	pts := []vec.V{vec.Of(1e155, -1e155), vec.Of(-1e155, 1e155), vec.Of(1e155, 0)}
	pos, dist := L2{}.Within(c, flatten(pts, 2), 2, nil, math.MaxFloat64, nil, nil)
	if len(pos) != len(pts) {
		t.Fatalf("%d rows within MaxFloat64, want %d", len(pos), len(pts))
	}
	for k, p := range pos {
		if want := (L2{}).Dist(c, pts[p]); dist[k] != want {
			t.Errorf("dist[%d] = %v, want %v", k, dist[k], want)
		}
	}
	if dist[0] != 0 {
		t.Errorf("coincident distance = %v", dist[0])
	}
	if math.IsInf(dist[1], 0) {
		t.Error("kernel overflowed where Dist does not")
	}
}

func TestBatchArgValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"center dim mismatch", func() {
			L2{}.Within(vec.Of(1), []float64{1, 2}, 2, nil, 1, nil, nil)
		}},
		{"ragged coords", func() {
			L1{}.Within(vec.Of(1, 2), []float64{1, 2, 3}, 2, nil, 1, nil, nil)
		}},
		{"pos and dist lengths differ", func() {
			LInf{}.Within(vec.Of(1, 2), []float64{1, 2, 3, 4}, 2, nil, 1, nil, make([]float64, 1))
		}},
		{"non-positive dim", func() {
			L2{}.Within(vec.V{}, nil, 0, nil, 1, nil, nil)
		}},
		{"LP center dim mismatch", func() {
			LP{Exp: 3}.Within(vec.Of(1), []float64{1, 2}, 2, nil, 1, nil, nil)
		}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// FuzzWithin checks every norm's Within against its Dist on arbitrary
// bits, and that Dist is symmetric to the bit (two NaNs count as equal: no
// caller reads a NaN distance's payload): data holds the center and then
// the rows (8 little-endian bytes a value, any float64 including NaN, ±Inf,
// ±0 and subnormals), and set bits of mask pick the rows read through idx.
func FuzzWithin(f *testing.F) {
	val := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(uint8(0), uint8(2), 1.0, uint64(0), val(0, 0, 0.5, 0.5, 1, 0, 0.6, 0.8, math.Copysign(0, -1), 0))
	f.Add(uint8(1), uint8(2), 1.0, uint64(0b1011), val(0.25, -0.25, 0.25, 0.75, -0.75, -0.25, 1.25, -0.25))
	f.Add(uint8(2), uint8(3), 0.3, uint64(0b110), val(0, 0, 0, 0.1, 0.2, 0.3, 0.3, 0, 0, -0.1, -0.1, -0.1))
	f.Add(uint8(1), uint8(1), 1e-300, uint64(1), val(5e-324, 0, -5e-324, 1e-300))
	f.Add(uint8(1), uint8(4), 2.0, uint64(0), val(1e155, -1e155, 0, 1, -1e155, 1e155, 0, 1, math.NaN(), 0, 0, 1))
	f.Add(uint8(3), uint8(2), 0.375, uint64(0b101), val(0, 0, 0.375, 0, 0, -0.375, 0.25, 0.25, 1e308, -1e308))
	f.Add(uint8(4), uint8(1), 1.0, uint64(0), val(math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002), 0.5, math.Inf(-1)))
	f.Fuzz(func(t *testing.T, which, dimByte uint8, r float64, mask uint64, data []byte) {
		nm := withinNorms[int(which)%len(withinNorms)]
		dim := int(dimByte)%5 + 1
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(vals) < dim {
			return
		}
		c, coords := vec.V(vals[:dim]), vals[dim:len(vals)-(len(vals)-dim)%dim]
		for i := 0; i < len(coords)/dim; i++ {
			row := vec.V(coords[i*dim : (i+1)*dim])
			ab, ba := nm.Dist(c, row), nm.Dist(row, c)
			if math.Float64bits(ab) != math.Float64bits(ba) && !(math.IsNaN(ab) && math.IsNaN(ba)) {
				t.Fatalf("%s: Dist(c, row %d) = %v (%#x), Dist(row, c) = %v (%#x)",
					nm.Name(), i, ab, math.Float64bits(ab), ba, math.Float64bits(ba))
			}
		}
		checkWithin(t, nm, c, coords, dim, nil, r)
		if mask&1 != 0 {
			idx := []int32{}
			for i := 0; i < len(coords)/dim; i++ {
				if mask>>(1+i%63)&1 != 0 {
					idx = append(idx, int32(i))
				}
			}
			checkWithin(t, nm, c, coords, dim, idx, r)
		}
	})
}
