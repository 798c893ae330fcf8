// Package fwht implements the fast Walsh-Hadamard transform and the
// Randomized Hadamard Transform (RHT) used by the paper's DRIVE-style 1-bit
// gradient encoding (§3.2).
//
// The RHT of a row x is R_s(x) = (1/√n)·H·D_s·x, where H is the n×n
// Hadamard matrix (n a power of two) and D_s is a random ±1 diagonal derived
// from a shared seed s. Because (1/√n)·H is orthogonal and D_s is its own
// inverse, the transform is an isometry: it preserves the L2 norm and is
// exactly invertible. After rotation the coordinates are approximately
// i.i.d. Gaussian with zero mean, which is what makes the 1-bit sign head
// an effective standalone compression.
//
// The paper splits each collective-communication blob into rows of
// 2^15 = 32768 entries so each row fits in GPU L1 shared memory; DefaultRowSize
// mirrors that constant and SplitRows implements the same padding/split.
package fwht

import (
	"math"
	"math/bits"

	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

// DefaultRowSize is the row length the paper uses for per-row RHT (2^15).
const DefaultRowSize = 1 << 15

// Transform applies the (unnormalized) Walsh-Hadamard transform to v in
// place. len(v) must be a power of two; Transform panics otherwise.
// Applying Transform twice multiplies v by len(v).
//
// The transform is log₂n butterfly stages h = 1, 2, 4, …, n/2, stage h
// replacing every pair (v[j], v[j+h]) by (sum, difference). The stages
// run in that order and every butterfly is one rounded float32 add and
// one rounded subtract, so each output is a fixed tree of float32
// operations — the determinism contract (same seed, same bytes) pins
// that tree, and the kernel only changes how many stages share one trip
// through memory: h = 1, 2, 4 run on eight contiguous values held in
// registers, the rest two stages per pass (radix-4), with one single
// stage first when an odd number remains.
func Transform(v []float32) {
	n := len(v)
	if !vecmath.IsPow2(n) {
		panic("fwht: length is not a power of two")
	}
	if n < 8 {
		for h := 1; h < n; h <<= 1 {
			stage(v, h)
		}
		return
	}
	for i := 0; i+8 <= n; i += 8 {
		b := v[i : i+8]
		x0, x1, x2, x3, x4, x5, x6, x7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
		x0, x1 = x0+x1, x0-x1
		x2, x3 = x2+x3, x2-x3
		x4, x5 = x4+x5, x4-x5
		x6, x7 = x6+x7, x6-x7
		x0, x2 = x0+x2, x0-x2
		x1, x3 = x1+x3, x1-x3
		x4, x6 = x4+x6, x4-x6
		x5, x7 = x5+x7, x5-x7
		b[0], b[4] = x0+x4, x0-x4
		b[1], b[5] = x1+x5, x1-x5
		b[2], b[6] = x2+x6, x2-x6
		b[3], b[7] = x3+x7, x3-x7
	}
	h := 8
	if bits.TrailingZeros(uint(n))&1 == 0 {
		// log₂n − 3 stages remain; an odd count leaves one for radix 2.
		stage(v, h)
		h <<= 1
	}
	for ; h < n; h <<= 2 {
		for i := 0; i < n; i += h << 2 {
			a := v[i : i+h]
			b := v[i+h:][:len(a)]
			c := v[i+2*h:][:len(a)]
			d := v[i+3*h:][:len(a)]
			for j := range a {
				// Stage h on (a, b) and (c, d), then stage 2h on the results.
				s0, d0 := a[j]+b[j], a[j]-b[j]
				s1, d1 := c[j]+d[j], c[j]-d[j]
				a[j], c[j] = s0+s1, s0-s1
				b[j], d[j] = d0+d1, d0-d1
			}
		}
	}
}

// stage runs the single butterfly stage h over v.
func stage(v []float32, h int) {
	for i := 0; i < len(v); i += h << 1 {
		a := v[i : i+h]
		b := v[i+h:][:len(a)]
		for j := range a {
			x, y := a[j], b[j]
			a[j], b[j] = x+y, x-y
		}
	}
}

// Normalized applies the orthonormal Walsh-Hadamard transform H/√n to v in
// place. Applying it twice is the identity (up to floating-point error).
func Normalized(v []float32) {
	Transform(v)
	vecmath.Scale(v, float32(1/math.Sqrt(float64(len(v)))))
}

// applySignDiagonal multiplies v element-wise by the ±1 diagonal derived
// from seed: bit=1 means negate. The same seed always yields the same
// diagonal, which is how sender and receiver share D_s. Negation is the
// sign bit XORed with the diagonal's bit — what unary minus does to a
// float32, zeros, infinities and NaNs included — so a coin-flip branch
// per coordinate is not taken.
func applySignDiagonal(v []float32, seed uint64) {
	r := xrand.New(seed)
	for len(v) > 0 {
		w := r.Uint64()
		chunk := v[:min(64, len(v))]
		for b, x := range chunk {
			// uint32(w)<<31 is bit 0 of w — coordinate b's coin — moved to
			// the float's sign position.
			chunk[b] = math.Float32frombits(math.Float32bits(x) ^ uint32(w)<<31)
			w >>= 1
		}
		v = v[len(chunk):]
	}
}

// RandomRotate applies the RHT R_s(v) = (1/√n)·H·D_s·v in place.
// len(v) must be a power of two.
func RandomRotate(v []float32, seed uint64) {
	applySignDiagonal(v, seed)
	Normalized(v)
}

// InverseRandomRotate undoes RandomRotate with the same seed:
// v = D_s·(H/√n)·y.
func InverseRandomRotate(v []float32, seed uint64) {
	Normalized(v)
	applySignDiagonal(v, seed)
}

// SplitRows splits v into rows of rowSize entries, zero-padding the final
// row. rowSize must be a positive power of two. Rows are fresh allocations;
// they do not alias v.
func SplitRows(v []float32, rowSize int) [][]float32 {
	if len(v) == 0 {
		if !vecmath.IsPow2(rowSize) {
			panic("fwht: rowSize is not a power of two")
		}
		return nil
	}
	nRows := (len(v) + rowSize - 1) / rowSize
	return SplitRowsBacking(v, rowSize, make([]float32, nRows*rowSize))
}

// SplitRowsBacking is SplitRows with a caller-provided backing buffer
// (e.g. a par scratch arena), letting steady-state encode calls avoid
// the per-message allocation. backing must hold at least
// ceil(len(v)/rowSize)·rowSize entries; it is fully overwritten — v is
// copied in and the padding tail is explicitly zeroed, so a dirty
// recycled buffer is safe. The returned rows alias backing.
func SplitRowsBacking(v []float32, rowSize int, backing []float32) [][]float32 {
	if !vecmath.IsPow2(rowSize) {
		panic("fwht: rowSize is not a power of two")
	}
	if len(v) == 0 {
		return nil
	}
	nRows := (len(v) + rowSize - 1) / rowSize
	need := nRows * rowSize
	if len(backing) < need {
		panic("fwht: SplitRowsBacking buffer too small")
	}
	backing = backing[:need]
	copy(backing, v)
	for i := len(v); i < need; i++ {
		backing[i] = 0
	}
	rows := make([][]float32, nRows)
	for i := range rows {
		rows[i] = backing[i*rowSize : (i+1)*rowSize]
	}
	return rows
}

// UnbiasedScale computes the DRIVE scale factor f = ‖V‖²₂ / ‖R(V)‖₁ used to
// decode sign bits without bias: E[IRHT(f·sign(R(V)))] = V. original is the
// pre-rotation row, rotated the post-rotation row. Returns 0 for an
// all-zero row.
func UnbiasedScale(original, rotated []float32) float64 {
	l1 := vecmath.L1Norm(rotated)
	if l1 == 0 {
		return 0
	}
	return vecmath.L2NormSquared(original) / l1
}
