// Package xrand provides a small, fast, deterministic random number
// generator (SplitMix64) plus the sampling helpers the simulation harness
// needs. Every experiment in the repository threads an explicit *Rand so
// that reported numbers are reproducible from a seed alone; nothing in this
// package reads global state or the clock.
package xrand

import "math"

// Rand is a SplitMix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0; prefer New to make seeding explicit.
type Rand struct {
	state uint64
}

// New returns a generator with the given seed. Distinct seeds give
// independent-looking streams; the same seed always yields the same stream.
func New(seed uint64) *Rand { return &Rand{state: seed} }

// Split returns a new generator whose stream is decorrelated from r's,
// advancing r once. Use it to give each parallel worker its own source.
func (r *Rand) Split() *Rand {
	// The golden-gamma constant keeps child streams well separated.
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform value in [lo, hi). Finite ends give a finite
// value even where hi − lo overflows float64: there the draw is the convex
// combination lo·(1−t) + hi·t, kept inside [lo, hi].
func (r *Rand) Uniform(lo, hi float64) float64 {
	t := r.Float64()
	if x := lo + (hi-lo)*t; math.Abs(x) <= math.MaxFloat64 {
		return x
	}
	return math.Min(math.Max(lo*(1-t)+hi*t, lo), hi)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire-style bounded generation without modulo bias for the sizes
	// used here (n far below 2^63).
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes xs in place (Fisher–Yates).
func (r *Rand) ShuffleInts(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// NormFloat64 returns a standard normal variate via the Box–Muller
// transform. Used by the clustered point generator and interest drift.
func (r *Rand) NormFloat64() float64 {
	// Reject u1 == 0 so the log is finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Poisson returns a Poisson variate with mean lambda ≥ 0, using Knuth's
// product method for small means and a normal approximation (rounded,
// clamped at zero) for large ones. It panics on negative or non-finite
// lambda.
func (r *Rand) Poisson(lambda float64) int {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		panic("xrand: Poisson with invalid lambda")
	}
	if lambda == 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*r.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Zipf samples ranks in [1, n] with probability proportional to 1/rank^s.
// It precomputes the CDF; sampling is O(log n) by binary search.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0.
// It panics if n <= 0 or s <= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 || s <= 0 || math.IsNaN(s) {
		panic("xrand: NewZipf requires n > 0 and s > 0")
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding at the tail
	return &Zipf{cdf: cdf}
}

// N reports the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Rank draws a rank in [1, N].
func (z *Zipf) Rank(r *Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}
