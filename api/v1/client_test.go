package v1

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/pointset"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// randomFloat draws a float64 across encoding/json's format cutoffs: zero,
// negative zero, and magnitudes from 1e-30 to 1e30.
func randomFloat(rng *xrand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.IntRange(-30, 30)))
}

// TestSolveBodyMatchesMarshal: the body Solve sends is json.Marshal(req)'s,
// byte for byte, for random instances and envelopes with every option set,
// strings that json.Marshal escapes, and no instance at all.
func TestSolveBodyMatchesMarshal(t *testing.T) {
	rng := xrand.New(17)
	floats := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = randomFloat(rng)
		}
		return xs
	}
	for trial := range 200 {
		n, dim := rng.IntRange(1, 300), rng.IntRange(1, 4)
		pts := make([]vec.V, n)
		ws := make([]float64, n)
		for i := range pts {
			pts[i] = floats(dim)
			ws[i] = math.Abs(randomFloat(rng))
		}
		set, err := pointset.New(pts, ws)
		if err != nil {
			t.Fatal(err)
		}
		req := &SolveRequest{Instance: set, Radius: math.Abs(randomFloat(rng)), K: rng.IntRange(1, n)}
		if trial%4 == 0 {
			req.Instance = nil
		}
		if trial%2 == 1 {
			req.Norm, req.Solver, req.CacheControl = "l1", "sharded(<greedy2&lazy>)", CacheControlBypass
			req.DeadlineMS = int64(rng.IntRange(1, 1000))
			req.Options = SolveOptions{Workers: rng.IntRange(1, 8), Seed: rng.Uint64(),
				WarmStart: [][]float64{floats(dim), floats(dim)}, GridPer: rng.IntRange(1, 9),
				BoxLo: floats(dim), BoxHi: floats(dim), Polish: true, DisablePrune: true,
				Shards: rng.IntRange(1, 9), Halo: rng.IntRange(-1, 3), Refine: rng.IntRange(1, 4)}
		}
		got, err := solveBody(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: body differs from json.Marshal's:\n%s\n%s", trial, got, want)
		}
	}
}

// BenchmarkSolveBody encodes a forwarded part's request, 15,000 2-D users,
// as Solve does and as json.Marshal does.
//
//	go test -run '^$' -bench SolveBody -benchmem ./api/v1
func BenchmarkSolveBody(b *testing.B) {
	set, err := pointset.GenUniform(15_000, pointset.PaperBox2D(), pointset.RandomIntWeight, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	req := &SolveRequest{Instance: set, Radius: 0.0632, Solver: "greedy2-lazy", K: 32}
	for _, enc := range []struct {
		name string
		f    func(*SolveRequest) ([]byte, error)
	}{{"splice", solveBody}, {"json.Marshal", func(r *SolveRequest) ([]byte, error) { return json.Marshal(r) }}} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := enc.f(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
