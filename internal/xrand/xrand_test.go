package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 collisions between distinct seeds", same)
	}
}

func TestSplitDecorrelates(t *testing.T) {
	r := New(7)
	c := r.Split()
	if r.Uint64() == c.Uint64() {
		t.Fatal("split stream equals parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		x := r.Uniform(-2, 3)
		if x < -2 || x >= 3 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

// TestUniformOverflowingSpan: on ordinary ends Uniform keeps the bits of
// lo + (hi−lo)·t; where hi − lo overflows it stays finite and in [lo, hi].
func TestUniformOverflowingSpan(t *testing.T) {
	rng := New(11)
	for i := 0; i < 10000; i++ {
		lo := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntRange(-300, 300)))
		hi := lo + rng.Float64()*math.Pow(10, float64(rng.IntRange(-300, 300)))
		seed := rng.Uint64()
		got, ref := New(seed).Uniform(lo, hi), New(seed)
		if want := lo + (hi-lo)*ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Uniform(%v, %v) = %v, the plain formula gives %v", lo, hi, got, want)
		}
	}
	for _, b := range [][2]float64{{-1e308, 1e308}, {-math.MaxFloat64, math.MaxFloat64}, {1e308, math.MaxFloat64}} {
		r := New(3)
		for i := 0; i < 1000; i++ {
			if x := r.Uniform(b[0], b[1]); math.IsNaN(x) || x < b[0] || x > b[1] {
				t.Fatalf("Uniform(%v, %v) = %v", b[0], b[1], x)
			}
		}
	}
}

func TestIntnRangeAndCoverage(t *testing.T) {
	r := New(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn covered %d/7 values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(13)
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		v := r.IntRange(1, 5)
		if v < 1 || v > 5 {
			t.Fatalf("IntRange out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("IntRange covered %d/5 values", len(seen))
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(23)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(29)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("negative exponential variate %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(31)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(53)
	for _, lambda := range []float64{0.5, 3, 12} {
		const n = 100000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			k := r.Poisson(lambda)
			if k < 0 {
				t.Fatalf("negative Poisson variate %d", k)
			}
			sum += float64(k)
			sumSq += float64(k) * float64(k)
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > 0.05*lambda+0.02 {
			t.Errorf("lambda=%v: mean = %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.1*lambda+0.05 {
			t.Errorf("lambda=%v: variance = %v", lambda, variance)
		}
	}
	// Large-lambda normal approximation path.
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(r.Poisson(100))
	}
	if mean := sum / n; math.Abs(mean-100) > 1 {
		t.Errorf("lambda=100: mean = %v", mean)
	}
	if r.Poisson(0) != 0 {
		t.Error("Poisson(0) != 0")
	}
}

func TestPoissonPanics(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Poisson(%v) did not panic", bad)
				}
			}()
			New(1).Poisson(bad)
		}()
	}
}

func TestZipfRanksAndSkew(t *testing.T) {
	r := New(37)
	z := NewZipf(100, 1.0)
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	counts := make([]int, 101)
	const n = 100000
	for i := 0; i < n; i++ {
		rank := z.Rank(r)
		if rank < 1 || rank > 100 {
			t.Fatalf("rank out of range: %d", rank)
		}
		counts[rank]++
	}
	// Rank 1 must dominate rank 10 roughly 10:1 under s=1.
	ratio := float64(counts[1]) / float64(counts[10])
	if ratio < 5 || ratio > 20 {
		t.Errorf("rank1/rank10 = %v, want ~10", ratio)
	}
}

func TestZipfPanicsOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(0, 1) },
		func() { NewZipf(10, 0) },
		func() { NewZipf(10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("NewZipf accepted invalid arguments")
				}
			}()
			fn()
		}()
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r Rand
	_ = r.Uint64() // must not panic
}
