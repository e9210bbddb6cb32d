// Package rng provides a deterministic, splittable pseudo-random number
// generator and the sampling distributions used throughout netsamp.
//
// Every experiment in the repository is seeded explicitly so that tables
// and figures regenerate bit-for-bit. The generator is xoshiro256**
// seeded through SplitMix64; Split derives statistically independent
// child streams, which lets concurrent simulations share one master seed
// without sharing state (no locking, unlike math/rand's global source).
package rng

import "math"

// Source is a deterministic pseudo-random number generator. It is not
// safe for concurrent use; derive one Source per goroutine with Split.
// The zero value is not valid: use New.
type Source struct {
	s [4]uint64
}

// splitMix64 advances x and returns the next SplitMix64 output. It is
// used only for seeding, as recommended by the xoshiro authors.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *Source {
	var src Source
	x := seed
	for i := range src.s {
		src.s[i] = splitMix64(&x)
	}
	// xoshiro256** must not start in the all-zero state; SplitMix64 of any
	// seed never produces four zero words, but be defensive anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new Source whose stream is statistically independent
// from the receiver's continuation. The receiver is advanced.
func (r *Source) Split() *Source {
	seed := r.Uint64()
	return New(seed ^ 0xd2b74407b1ce6e93)
}

// SplitSeed derives the seed of the i-th child stream of a master seed
// as a pure function of (master, i): unlike Split it involves no shared
// state, so a batch of jobs can be seeded in any order — or concurrently
// — and job i always receives the same stream. This is the determinism
// contract of internal/engine: results are bit-identical regardless of
// worker count. Two SplitMix64 rounds decorrelate even adjacent indices.
func SplitSeed(master, i uint64) uint64 {
	x := master
	h := splitMix64(&x)
	x = h ^ (i+1)*0x9e3779b97f4a7c15
	splitMix64(&x)
	return splitMix64(&x)
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits scaled by 2^-53, the standard full-precision construction.
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias negligible for n << 2^64
}

// Bernoulli reports true with probability p. Values of p outside [0, 1]
// are clamped.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exponential returns an exponentially distributed variate with the
// given rate (mean 1/rate). It panics if rate <= 0.
func (r *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u) / rate
		}
	}
}

// Pareto returns a Pareto(xm, alpha) variate: P(X > x) = (xm/x)^alpha for
// x >= xm. Heavy-tailed flow sizes in the traffic generator use this.
func (r *Source) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("rng: Pareto requires positive xm and alpha")
	}
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}

// LogNormal returns exp(N(mu, sigma^2)).
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Binomial returns a Binomial(n, p) variate: the number of successes in
// n independent trials of probability p. This is the exact distribution
// of the number of sampled packets of a flow of size n under i.i.d.
// packet sampling at rate p (paper, Section IV-C).
//
// Strategy: for small n*p it counts successes by skipping geometric
// waiting times (exact, O(n*p) expected); for large n*p it uses the
// normal approximation with continuity correction, whose relative error
// is far below the sampling noise the experiments measure.
func (r *Source) Binomial(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	mean := float64(n) * p
	if mean < 1000 {
		// Geometric-skip method: the gap between successes is Geometric(p).
		q := math.Log(1 - p)
		var count, i int64
		for {
			u := r.Float64()
			if u <= 0 {
				u = math.SmallestNonzeroFloat64
			}
			skip := int64(math.Floor(math.Log(u) / q))
			i += skip + 1
			if i > n {
				return count
			}
			count++
		}
	}
	sd := math.Sqrt(mean * (1 - p))
	v := math.Floor(mean + sd*r.NormFloat64() + 0.5)
	if v < 0 {
		v = 0
	}
	if v > float64(n) {
		v = float64(n)
	}
	return int64(v)
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
