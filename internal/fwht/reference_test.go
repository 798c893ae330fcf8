package fwht

import (
	"math"
	"testing"

	"trimgrad/internal/xrand"
)

// The kernels Transform and applySignDiagonal replaced, kept verbatim as
// the references the blocked kernels must match bit for bit.

// transformRadix2 is the textbook in-place transform: one butterfly stage
// per pass over v.
func transformRadix2(v []float32) {
	n := len(v)
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := v[j], v[j+h]
				v[j], v[j+h] = x+y, x-y
			}
		}
	}
}

// signDiagonalBranch negates v[i] when bit i of the seed's stream is set,
// one branch per coordinate.
func signDiagonalBranch(v []float32, seed uint64) {
	r := xrand.New(seed)
	n := len(v)
	i := 0
	for i < n {
		w := r.Uint64()
		m := 64
		if n-i < m {
			m = n - i
		}
		for b := 0; b < m; b++ {
			if w>>uint(b)&1 == 1 {
				v[i+b] = -v[i+b]
			}
		}
		i += m
	}
}

func sameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %x (%g), want %x (%g)", label, i,
				math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// canonNaNs gives every NaN in v one bit pattern. Arithmetic results are
// compared through it: when both operands of an add are NaNs the hardware
// keeps the payload of whichever the compiler placed first, which is not
// a property of the sequence of adds.
func canonNaNs(v []float32) []float32 {
	for i, x := range v {
		if x != x {
			v[i] = float32(math.NaN())
		}
	}
	return v
}

// specials overwrites a few coordinates with the values whose sign and
// arithmetic are easiest to get wrong: both zeros, both infinities, NaNs
// of either sign, a subnormal and the largest finite float.
func specials(v []float32) {
	vals := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0xffc00001),
		math.SmallestNonzeroFloat32, -math.MaxFloat32,
	}
	for i, x := range vals {
		if i < len(v) {
			v[(i*7)%len(v)] = x
		}
	}
}

// TestTransformMatchesRadix2 pins the register-blocked radix-4 transform
// to the radix-2 loop at every power of two from 1 to 2^15 — so every
// combination of "fewer than eight values", "odd stage count" and "even
// stage count" — on ordinary and on special values.
func TestTransformMatchesRadix2(t *testing.T) {
	for n := 1; n <= 1<<15; n <<= 1 {
		for _, special := range []bool{false, true} {
			want := randomRow(uint64(n)+3, n)
			if special {
				specials(want)
			}
			got := append([]float32(nil), want...)
			transformRadix2(want)
			Transform(got)
			sameBits(t, "transform", canonNaNs(got), canonNaNs(want))
		}
	}
}

// TestSignDiagonalMatchesBranch pins the XOR sign flip to the branching
// negate, including lengths that end inside a 64-bit word of the stream.
func TestSignDiagonalMatchesBranch(t *testing.T) {
	lengths := []int{1, 3, 63, 64, 65, 130, 1000}
	for n := 1; n <= 1<<15; n <<= 1 {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		want := randomRow(uint64(n)+5, n)
		specials(want)
		got := append([]float32(nil), want...)
		seed := xrand.Seed(17, uint64(n))
		signDiagonalBranch(want, seed)
		applySignDiagonal(got, seed)
		sameBits(t, "sign diagonal", got, want)
	}
}

// TestRandomRotateMatchesReference composes the two references into the
// rotation the codecs call and checks both directions.
func TestRandomRotateMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 8, 1 << 11, 1 << 15} {
		seed := xrand.Seed(23, uint64(n))
		scale := float32(1 / math.Sqrt(float64(n)))
		want := randomRow(uint64(n)+9, n)
		got := append([]float32(nil), want...)

		signDiagonalBranch(want, seed)
		transformRadix2(want)
		for i := range want {
			want[i] *= scale
		}
		RandomRotate(got, seed)
		sameBits(t, "rotate", got, want)

		transformRadix2(want)
		for i := range want {
			want[i] *= scale
		}
		signDiagonalBranch(want, seed)
		InverseRandomRotate(got, seed)
		sameBits(t, "inverse rotate", got, want)
	}
}
