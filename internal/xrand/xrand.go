// Package xrand provides a small, deterministic pseudo-random number
// generator suite for the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: every
// figure in the paper is regenerated from a (scenario, seed) pair, and runs
// must be bit-identical across machines and across Go releases. The package
// therefore implements its own generators instead of relying on math/rand's
// unspecified internals:
//
//   - SplitMix64 — used to expand a single user seed into independent
//     sub-stream seeds (one per node, per mobility model, per protocol).
//   - xoshiro256++ — the workhorse generator behind Rand.
//
// Both are public-domain algorithms by Blackman & Vigna.
package xrand

import (
	"math"
	"math/bits"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used both to seed xoshiro and to derive independent streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic generator. It is NOT safe for concurrent use; give
// each goroutine (each simulation run) its own Rand, derived via Derive.
type Rand struct {
	s [4]uint64
	// lineage is the seed the current state was initialized from — set by
	// New, updated by Reseed — and is what Derive and StreamSeed split
	// substreams from, independent of how much output has been drawn.
	lineage uint64
}

// New returns a generator seeded from seed. Distinct seeds yield
// uncorrelated streams (seed expansion via SplitMix64).
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed re-initializes r in place to the exact state New(seed) produces,
// without allocating. It exists for consumers that draw from a fresh
// counter-based stream per work item (e.g. one stream per (node, round) in
// the protocol's maintenance fan-out) and want to reuse one Rand per
// worker instead of allocating a generator per item.
func (r *Rand) Reseed(seed uint64) {
	r.lineage = seed
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start at the all-zero state; SplitMix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// StreamSeed derives the seed of the counter-based substream (a, b) of r's
// lineage: a SplitMix64 absorption chain over (lineage, a, b). The result
// depends only on the construction seed and the two counters — never on
// how much output has been drawn from r — so any party holding the root
// generator can name the same stream. Distinct (a, b) pairs (including
// swapped ones) yield uncorrelated streams.
//
// This is the determinism backbone of the parallel maintenance rounds:
// every node draws from the stream (nodeID, round), so its randomness is
// identical whether the round runs serially in id order or sharded across
// any number of workers in any interleaving.
func (r *Rand) StreamSeed(a, b uint64) uint64 {
	s := r.lineage
	h := splitMix64(&s)
	s = h ^ (a+1)*0xd1342543de82ef95
	h = splitMix64(&s)
	s = h ^ (b+1)*0x9e3779b97f4a7c15
	return splitMix64(&s)
}

// SplitStream returns a new generator seeded on substream (a, b); see
// StreamSeed. Prefer Reseed(r.StreamSeed(a, b)) on a reused generator in
// hot loops.
func (r *Rand) SplitStream(a, b uint64) *Rand {
	return New(r.StreamSeed(a, b))
}

// Derive returns a new generator whose stream is a deterministic function of
// r's construction seed and the given stream id, independent of how much
// output has been drawn from r. Use it to give every node / protocol / model
// its own stream so that adding a consumer does not perturb the others.
func (r *Rand) Derive(stream uint64) *Rand {
	sm := r.lineage
	base := splitMix64(&sm)
	return New(base ^ (stream+1)*0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits (xoshiro256++).
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[0]+r.s[3], 23) + r.s[0]
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Lemire's multiply-shift method with rejection for exact uniformity.
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= n || lo >= -n%n {
			// -n % n == (2^64 - n) % n: the threshold below which results
			// are biased. The first comparison short-circuits the common
			// case cheaply.
			return hi
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *Rand) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("xrand: Range with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
func (r *Rand) ExpFloat64() float64 {
	// Inverse CDF; Float64 returns [0,1) so 1-u ∈ (0,1] and Log is finite.
	return -math.Log(1 - r.Float64())
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf samples from the bounded Zipf distribution over {0, …, n-1}:
// P(k) ∝ 1/(k+1)^s. s = 0 degenerates to the uniform distribution; larger
// s concentrates mass on the low ranks (rank 0 is the most popular).
//
// The sampler precomputes the cumulative distribution once and inverts it
// with a binary search per draw, so every Draw consumes exactly one
// Float64 from the caller's generator regardless of the sampled value.
// That fixed draw count is what lets the workload layer generate request
// streams that are pure functions of the seed — the determinism backbone
// of the serial==parallel traffic contract.
//
// A Zipf is immutable after construction and safe for concurrent Draw
// calls (each caller supplies its own Rand).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n ranks with exponent s. It panics when
// n <= 0 or s is negative or NaN.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: Zipf needs n > 0")
	}
	if !(s >= 0) {
		panic("xrand: Zipf needs s >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	// The last bucket owns the tail exactly: Float64 < 1 always lands.
	cdf[n-1] = 1
	return &Zipf{cdf: cdf}
}

// N returns the support size.
func (z *Zipf) N() int { return len(z.cdf) }

// Draw samples one rank in [0, N) using exactly one uniform draw from r.
func (z *Zipf) Draw(r *Rand) int {
	u := r.Float64()
	// First index with cdf[i] > u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
