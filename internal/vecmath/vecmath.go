// Package vecmath provides the float32 vector kernels underlying trimgrad's
// gradient encoders: norms and moments, clipping, scaled accumulation, and
// magnitude selection. Gradients travel as []float32 throughout the system
// (matching the 32-bit floating-point wire format in the paper), while
// accumulations run in float64 to avoid drift over 2^15-entry rows.
package vecmath

import (
	"math"
	"sort"
)

// Sum returns the float64 sum of v.
func Sum(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float32) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// Std returns the population standard deviation of v (σ, as the paper uses
// to scale sign-bit decoding), or 0 for a slice with fewer than one element.
func Std(v []float32) float64 {
	if len(v) == 0 {
		return 0
	}
	mean := Mean(v)
	var ss float64
	for _, x := range v {
		d := float64(x) - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(v)))
}

// L1Norm returns Σ|v_i|.
func L1Norm(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(float64(x))
	}
	return s
}

// L2NormSquared returns Σ v_i².
func L2NormSquared(v []float32) float64 {
	var s float64
	for _, x := range v {
		f := float64(x)
		s += f * f
	}
	return s
}

// L2Norm returns √(Σ v_i²).
func L2Norm(v []float32) float64 { return math.Sqrt(L2NormSquared(v)) }

// Dot returns the float64 inner product of a and b. It panics if the
// lengths differ.
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	var s float64
	for i, x := range a {
		s += float64(x) * float64(b[i])
	}
	return s
}

// Clip bounds every element of v into [-limit, limit] in place.
// It panics if limit is negative.
func Clip(v []float32, limit float32) {
	if limit < 0 {
		panic("vecmath: negative clip limit")
	}
	for i, x := range v {
		if x > limit {
			v[i] = limit
		} else if x < -limit {
			v[i] = -limit
		}
	}
}

// Scale multiplies every element of v by c in place.
func Scale(v []float32, c float32) {
	for i := range v {
		v[i] *= c
	}
}

// Axpy computes dst += a*x element-wise. It panics if lengths differ.
func Axpy(dst []float32, a float32, x []float32) {
	if len(dst) != len(x) {
		panic("vecmath: Axpy length mismatch")
	}
	for i, v := range x {
		dst[i] += a * v
	}
}

// Add computes dst += x element-wise. It panics if lengths differ.
func Add(dst, x []float32) { Axpy(dst, 1, x) }

// NMSE returns the normalized mean squared error ‖est-ref‖²/‖ref‖², the
// standard quality metric for gradient compression (lower is better).
// It returns 0 when both vectors are zero and +Inf when only ref is zero.
func NMSE(ref, est []float32) float64 {
	if len(ref) != len(est) {
		panic("vecmath: NMSE length mismatch")
	}
	var num, den float64
	for i := range ref {
		d := float64(est[i]) - float64(ref[i])
		num += d * d
		r := float64(ref[i])
		den += r * r
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / den
}

// CosineSimilarity returns ⟨a,b⟩/(‖a‖‖b‖), or 0 if either norm is zero.
func CosineSimilarity(a, b []float32) float64 {
	na, nb := L2Norm(a), L2Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// TopKIndices returns the indices of the k largest-magnitude elements of v,
// ordered by decreasing |v_i| (ties broken by lower index first). k is
// clamped to len(v).
func TopKIndices(v []float32, k int) []int {
	if k > len(v) {
		k = len(v)
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return math.Abs(float64(v[idx[a]])) > math.Abs(float64(v[idx[b]]))
	})
	return idx[:k]
}

// MagnitudeOrder returns all indices of v ordered by decreasing magnitude.
func MagnitudeOrder(v []float32) []int { return TopKIndices(v, len(v)) }

// NextPow2 returns the smallest power of two ≥ n, with NextPow2(0) == 1.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
