package quant

import "math"

// Head/tail bit splits of an IEEE-754 float32.
//
// Sign-head schemes (Sign, RHT) put the sign bit in the head and up to 31
// tail bits holding the most-significant exponent+mantissa bits; at the
// full Q = 31 the pair reproduces the float exactly with zero space
// overhead — the property §3.2 highlights ("for the non-trimming case we
// achieved precise encoding of the original 32-bit number").
//
// Value-head schemes (SQ, SD, Linear, RHTLinear, Eden) spend their P head
// bits on a quantization index instead of on float bits, so their tails
// carry the top Q ≤ 32−P bits of the whole float (sign, exponent, high
// mantissa): untrimmed reconstruction is within 2^(Q−24)… relative error —
// at the default Q = 31 that is half a ulp, far below gradient noise.
//
// Narrower tails (Params.TailBits, the §5.3 ahead-of-time compression
// knob) simply keep fewer of the most-significant bits; the dropped low
// bits are zero-filled on decode.

// splitSignQ splits v into its sign bit and the top q bits of the
// remaining 31 (exponent + high mantissa). q must be in [0, 31].
func splitSignQ(v float32, q int) (head, tail uint32) {
	b := math.Float32bits(v)
	return b >> 31, (b & 0x7fffffff) >> uint(31-q)
}

// joinSignQ reassembles a float32 from splitSignQ parts, zero-filling the
// dropped low bits.
func joinSignQ(head, tail uint32, q int) float32 {
	return math.Float32frombits(head<<31 | tail<<uint(31-q))
}

// tailTopQ returns the top q bits of v's IEEE representation, the tail
// used by value-head schemes.
func tailTopQ(v float32, q int) uint32 {
	if q == 0 {
		return 0
	}
	return math.Float32bits(v) >> uint(32-q)
}

// joinTopQ reconstructs a float32 from a top-bits tail.
func joinTopQ(tail uint32, q int) float32 {
	if q == 0 {
		return 0
	}
	return math.Float32frombits(tail << uint(32-q))
}

// signValue maps a sign bit to ±1, by arithmetic rather than a branch on
// the bit.
func signValue(bit uint32) float32 {
	return float32(1 - 2*int32(bit&1))
}

// b2u is 1 for true and 0 for false. The compiler turns it into a flag
// set (SETcc), so a head decided by a coin or a comparison is a select and
// never a jump the branch predictor can miss.
func b2u(b bool) uint32 {
	var u uint32
	if b {
		u = 1
	}
	return u
}

// tailWidth resolves the effective tail width: the scheme's full-precision
// default, optionally narrowed by the TailBits override.
func tailWidth(defaultQ, override int) int {
	if override > 0 && override < defaultQ {
		return override
	}
	return defaultQ
}
