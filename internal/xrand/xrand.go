// Package xrand provides deterministic, splittable pseudo-random number
// generation used throughout trimgrad.
//
// The trimmable-gradient schemes in the paper rely on *shared randomness*:
// the sender and the receiver must derive bit-identical random streams
// without communicating them. Subtractive dithering needs a shared uniform
// dither per coordinate, and the Randomized Hadamard Transform needs a
// shared random diagonal of ±1 signs per row. The paper achieves this by
// seeding the GPU RNG with a combination of the training epoch and the
// collective-communication message ID; we do the same with a pure-Go
// deterministic generator keyed by (epoch, message, row).
//
// The generator is xoshiro256** seeded through SplitMix64, a pairing that
// is the reference initialization recommended by the xoshiro authors. It is
// not cryptographically secure and does not need to be; it only needs to be
// fast, well distributed, and exactly reproducible across machines.
package xrand

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand a small seed into the 256-bit xoshiro state so that
// nearby seeds (epoch 4 vs. epoch 5) produce unrelated streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. The zero value is not
// useful; construct one with New or Derive.
type Rand struct {
	s [4]uint64
	// spare holds a cached second Gaussian from the Box-Muller pair.
	spare    float64
	hasSpare bool
}

// New returns a generator seeded from a single 64-bit seed.
func New(seed uint64) *Rand {
	var r Rand
	r.Reseed(seed)
	return &r
}

// Reseed re-initializes the generator in place from seed, discarding any
// buffered Gaussian spare. Reusing a Rand via Reseed avoids allocation in
// hot per-row encoding loops.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro256** requires a nonzero state; SplitMix64 cannot produce four
	// consecutive zeros, but be defensive anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasSpare = false
	r.spare = 0
}

// Seed combines stream-identifying integers into a single 64-bit seed.
// It mixes each component through SplitMix64 so that (1,2) and (2,1)
// produce unrelated seeds. Both ends of a connection call Seed with the
// same (epoch, messageID, rowID, ...) tuple to obtain identical streams.
func Seed(parts ...uint64) uint64 {
	return SeedFrom(0x6a09e667f3bcc909, parts...) // fractional bits of sqrt(2)
}

// SeedFrom continues a Seed mix from h, a Seed result, over more parts:
// Seed(a, b, c...) == SeedFrom(Seed(a, b), c...). A caller that mixes a
// fixed prefix with varying tails computes the prefix once.
func SeedFrom(h uint64, parts ...uint64) uint64 {
	for _, p := range parts {
		h ^= p
		h = splitMix64(&h)
	}
	return h
}

// Derive returns a new generator for a sub-stream identified by parts,
// deterministically derived from r's current state WITHOUT disturbing it.
func (r *Rand) Derive(parts ...uint64) *Rand {
	all := make([]uint64, 0, len(parts)+1)
	all = append(all, r.s[0]^r.s[3])
	all = append(all, parts...)
	return New(Seed(all...))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
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

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, 64-bit variant.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + (t >> 32) + (aLo*bHi+t&mask32)>>32
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard-normal sample using Box-Muller.
// The polar (Marsaglia) variant is used to avoid trig in the common path.
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * m
		r.hasSpare = true
		return u * m
	}
}

// ExpFloat64 returns an exponential sample with rate 1 (mean 1), via
// inversion. Callers scale by 1/rate for other rates.
func (r *Rand) ExpFloat64() float64 {
	// 1-Float64() is in (0,1], so the log is finite.
	return -math.Log(1 - r.Float64())
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *Rand) Perm(n int) []int {
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
