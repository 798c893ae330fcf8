package quant

import (
	"fmt"

	"trimgrad/internal/fwht"
	"trimgrad/internal/par"
	"trimgrad/internal/vecmath"
)

// edenCodec implements the EDEN extension the paper's footnote 2 points
// to: DRIVE generalized to any head width. The row is RHT-rotated (after
// which coordinates are approximately standard normal), and each rotated
// coordinate is quantized with the P-bit Lloyd-Max quantizer optimal for
// N(0,1) — strictly better than the uniform grid of rht-linear at the
// same bit budget. One per-row scale, transmitted reliably, maps the
// unit-normal centroids back to gradient magnitude; like the RHT codec it
// supports both the unbiased scale (f = ‖r‖²/⟨r, c(r)⟩, the DRIVE choice
// generalized: for P = 1 it reduces exactly to ‖r‖²/‖r‖₁) and the
// one-shot-MMSE scale (f = ⟨r, c(r)⟩/‖c(r)‖²).
type edenCodec struct{ p Params }

// lloydMaxCentroids holds the positive half of the symmetric optimal
// centroids for N(0,1) at 1..4 bits (2^P levels). Index by P.
var lloydMaxCentroids = map[int][]float64{
	1: {0.7978845608},
	2: {0.4527800398, 1.5104176087},
	3: {0.2451724394, 0.7560052489, 1.3439092613, 2.1519457917},
	4: {0.1283768468, 0.3880782340, 0.6567589957, 0.9423402690,
		1.2562309480, 1.6180646059, 2.0690172840, 2.7326357763},
}

func (c *edenCodec) Name() string   { return Eden.String() }
func (c *edenCodec) Params() Params { return c.p }

// edenIndex returns the quantizer bin for unit-normal value x: the low
// P−1 bits select the magnitude centroid, the top bit carries the sign.
func edenIndex(x float64, centroids []float64) uint32 {
	sign := uint32(0)
	if x < 0 {
		sign = 1
		x = -x
	}
	// Nearest-centroid by midpoint thresholds (centroids ascend).
	k := 0
	for k+1 < len(centroids) && x > (centroids[k]+centroids[k+1])/2 {
		k++
	}
	return sign<<uint(len(bitsOf(centroids))) | uint32(k)
}

// bitsOf returns a slice whose length is log2(len(centroids)) — a helper
// to keep the bit-width arithmetic in one place.
func bitsOf(centroids []float64) []struct{} {
	n := 0
	for 1<<uint(n) < len(centroids) {
		n++
	}
	return make([]struct{}, n)
}

// edenValue maps a bin index back to its centroid.
func edenValue(idx uint32, centroids []float64) float64 {
	magBits := len(bitsOf(centroids))
	k := int(idx & (1<<uint(magBits) - 1))
	if k >= len(centroids) {
		k = len(centroids) - 1
	}
	v := centroids[k]
	if idx>>uint(magBits)&1 == 1 {
		return -v
	}
	return v
}

func (c *edenCodec) Encode(row []float32, seed uint64) (*EncodedRow, error) {
	n := len(row)
	if !vecmath.IsPow2(n) {
		return nil, fmt.Errorf("quant: eden row length %d is not a power of two", n)
	}
	centroids, ok := lloydMaxCentroids[c.p.P]
	if !ok {
		return nil, fmt.Errorf("quant: eden head width P=%d not in [1,4]", c.p.P)
	}
	rot := par.Float32s(n)
	defer par.PutFloat32s(rot)
	copy(rot, row)
	fwht.RandomRotate(rot, seed)

	// Normalize to unit variance for the N(0,1) quantizer.
	sigma := vecmath.Std(rot)
	_, q := c.p.Widths()
	enc := newEncodedRow(Eden, c.p.P, q, n, seed, 0)
	// Quantize and accumulate the inner products the scale needs.
	var dotRC, normC2 float64
	for i, r := range rot {
		var x float64
		if sigma > 0 {
			x = float64(r) / sigma
		}
		idx := edenIndex(x, centroids)
		enc.Heads[i] = idx
		v := edenValue(idx, centroids) * sigma
		dotRC += float64(r) * v
		normC2 += v * v
		enc.Tails[i] = tailTopQ(r, q)
	}
	switch {
	case dotRC == 0 || normC2 == 0:
		enc.Scale = 0
	case c.p.ScaleMode == ScaleMMSE:
		enc.Scale = dotRC / normC2 * sigma
	default: // unbiased, generalizing DRIVE's ‖r‖²/‖r‖₁
		enc.Scale = vecmath.L2NormSquared(rot) / dotRC * sigma
	}
	return enc, nil
}

func (c *edenCodec) Decode(enc *EncodedRow, headAvail, tailAvail []bool) ([]float32, error) {
	return decodeNew(c, enc, headAvail, tailAvail)
}

func (c *edenCodec) DecodeInto(rot []float32, enc *EncodedRow, headAvail, tailAvail []bool) error {
	if err := checkDecodeArgs(rot, enc, headAvail, tailAvail); err != nil {
		return err
	}
	if !vecmath.IsPow2(enc.N) {
		return fmt.Errorf("quant: eden row length %d is not a power of two", enc.N)
	}
	centroids, ok := lloydMaxCentroids[enc.P]
	if !ok {
		return fmt.Errorf("quant: eden head width P=%d not in [1,4]", enc.P)
	}
	for i := range rot {
		switch {
		case !avail(headAvail, i):
			rot[i] = 0
		case avail(tailAvail, i):
			rot[i] = joinTopQ(enc.Tails[i], enc.Q)
		default:
			rot[i] = float32(edenValue(enc.Heads[i], centroids) * enc.Scale)
		}
	}
	fwht.InverseRandomRotate(rot, enc.Seed)
	return nil
}
