package quant

import (
	"math"

	"trimgrad/internal/vecmath"
)

// The Lloyd-Max head is the EDEN extension the paper's footnote 2 points
// to: DRIVE generalized to any head width. After the RHT rotation the
// coordinates are approximately normal, and each rotated coordinate is
// quantized with the P-bit Lloyd-Max quantizer optimal for N(0,1) —
// strictly better than the uniform grid of rht-linear at the same bit
// budget. One per-row scale, transmitted reliably, maps the unit-normal
// centroids back to gradient magnitude; like RHT it supports both the
// unbiased scale (f = ‖r‖²/⟨r, c(r)⟩, the DRIVE choice generalized: for
// P = 1 it reduces exactly to ‖r‖²/‖r‖₁) and the one-shot-MMSE scale
// (f = ⟨r, c(r)⟩/‖c(r)‖²).

// lloydMaxCentroids holds the positive half of the symmetric optimal
// centroids for N(0,1) at 1..4 bits (2^P levels). Index by P.
var lloydMaxCentroids = map[int][]float64{
	1: {0.7978845608},
	2: {0.4527800398, 1.5104176087},
	3: {0.2451724394, 0.7560052489, 1.3439092613, 2.1519457917},
	4: {0.1283768468, 0.3880782340, 0.6567589957, 0.9423402690,
		1.2562309480, 1.6180646059, 2.0690172840, 2.7326357763},
}

// edenQuantizer is the P-bit Lloyd-Max quantizer: an index's low P−1
// bits pick the magnitude centroid, its top bit the sign.
type edenQuantizer struct {
	mids    []float64 // midpoints of adjacent centroids, ascending
	signBit uint      // P−1, the index bit that carries the sign
	values  []float64 // the signed centroid each of the 2^P indices decodes to
}

// edenQuantizers holds one quantizer per head width, built once from
// lloydMaxCentroids.
var edenQuantizers = func() map[int]*edenQuantizer {
	m := make(map[int]*edenQuantizer, len(lloydMaxCentroids))
	for p := 1; p <= len(lloydMaxCentroids); p++ {
		c := lloydMaxCentroids[p]
		eq := &edenQuantizer{signBit: uint(p - 1), values: make([]float64, 2*len(c))}
		for k := range c[1:] {
			eq.mids = append(eq.mids, (c[k]+c[k+1])/2)
		}
		for k, v := range c {
			eq.values[k], eq.values[len(c)+k] = v, -v
		}
		m[p] = eq
	}
	return m
}()

// index returns the bin of unit-normal value x. Its magnitude is the count
// of midpoints below |x|, which is where a nearest-centroid scan up the
// ascending centroids stops, and a NaN counts none; neither the sign nor
// the count is a jump on x.
func (eq *edenQuantizer) index(x float64) uint32 {
	ax, k := math.Abs(x), uint32(0)
	for _, m := range eq.mids {
		k += b2u(ax > m)
	}
	return b2u(x < 0)<<eq.signBit | k
}

// value maps a bin index back to its signed centroid; bits above P are
// ignored.
func (eq *edenQuantizer) value(idx uint32) float64 {
	return eq.values[idx&(1<<(eq.signBit+1)-1)]
}

// encodeEden is the Lloyd-Max head's encode loop over the rotated row:
// it quantizes each coordinate at the row's σ and sets enc.Scale from the
// inner products the loop accumulates, by the rule mode names.
func encodeEden(enc *EncodedRow, rot []float32, mode ScaleMode) {
	eq := edenQuantizers[enc.P]
	// Normalize to unit variance for the N(0,1) quantizer.
	sigma := vecmath.Std(rot)
	// Quantize and accumulate the inner products the scale needs.
	var dotRC, normC2 float64
	heads, tails, q := enc.Heads[:len(rot)], enc.Tails[:len(rot)], enc.Q
	for i, r := range rot {
		var x float64
		if sigma > 0 {
			x = float64(r) / sigma
		}
		idx := eq.index(x)
		heads[i] = idx
		v := eq.values[idx] * sigma
		dotRC += float64(float64(r) * v)
		normC2 += float64(v * v)
		tails[i] = tailTopQ(r, q)
	}
	switch {
	case dotRC == 0 || normC2 == 0:
		enc.Scale = 0
	case mode == ScaleMMSE:
		enc.Scale = dotRC / normC2 * sigma
	default: // unbiased, generalizing DRIVE's ‖r‖²/‖r‖₁
		enc.Scale = vecmath.L2NormSquared(rot) / dotRC * sigma
	}
}

// decodeEden is the Lloyd-Max head's decode loop: a coordinate with its
// tail decodes to its top Q bits, a head alone to its scaled centroid and
// a missing head to zero. enc.P must be one Eden accepts.
func decodeEden(rot []float32, enc *EncodedRow, headAvail, tailAvail []bool) {
	eq := edenQuantizers[enc.P]
	heads, tails, q, scale := enc.Heads[:len(rot)], enc.Tails[:len(rot)], enc.Q, enc.Scale
	for i := range rot {
		switch {
		case !avail(headAvail, i):
			rot[i] = 0
		case avail(tailAvail, i):
			rot[i] = joinTopQ(tails[i], q)
		default:
			rot[i] = float32(eq.value(heads[i]) * scale)
		}
	}
}
