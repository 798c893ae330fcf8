package quant

import (
	"fmt"

	"trimgrad/internal/fwht"
	"trimgrad/internal/par"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

// rotatedCodec is the rotation step of §3.2 around a scalar head (see the
// package doc). What each scheme adds besides its head is the rule for its
// reliable scale:
//
//	RHT       — f = ‖V‖²₂/‖R(V)‖₁, so head-only coordinates decode to
//	            f·sign(r) without bias; ScaleMMSE takes the mean |r|.
//	RHTLinear — the clip limit L = ClipSigma·σ(R(V)).
//	Eden      — the scale its Lloyd-Max loop finds.
//
// Rows must be a power of two long (the core pipeline splits blobs into
// 2^15-entry rows exactly as the paper does for GPU L1 residency).
type rotatedCodec struct{ p Params }

func (c *rotatedCodec) Name() string   { return c.p.Scheme.String() }
func (c *rotatedCodec) Params() Params { return c.p }

func (c *rotatedCodec) Encode(row []float32, seed uint64) (*EncodedRow, error) {
	n := len(row)
	if !vecmath.IsPow2(n) {
		return nil, fmt.Errorf("quant: %v row length %d is not a power of two", c.p.Scheme, n)
	}
	// The rotation buffer is transient (only its head/tail bits survive
	// into the EncodedRow), so it comes from the scratch arena instead of
	// a fresh allocation per row.
	rot := par.Float32s(n)
	defer par.PutFloat32s(rot)
	copy(rot, row)
	fwht.RandomRotate(rot, seed)
	p, q := c.p.Widths()
	enc := newEncodedRow(c.p.Scheme, p, q, n, seed, 0)
	switch c.p.Scheme {
	case RHT:
		if c.p.ScaleMode == ScaleMMSE {
			// Mean |r|: the one-shot MSE-optimal scale (biased toward zero).
			enc.Scale = vecmath.L1Norm(rot) / float64(n)
		} else {
			enc.Scale = fwht.UnbiasedScale(row, rot)
		}
		encodeSign(enc, rot)
	case RHTLinear:
		enc.Scale = float64(c.p.ClipSigma * vecmath.Std(rot))
		// The quantization coin flips must not collide with the rotation's
		// diagonal stream, so derive a distinct sub-seed.
		encodeLinear(enc, rot, xrand.New(xrand.Seed(seed, quantStreamLabel)))
	case Eden:
		encodeEden(enc, rot, c.p.ScaleMode)
	}
	return enc, nil
}

// quantStreamLabel separates the stochastic-rounding stream from the RHT
// diagonal stream derived from the same row seed.
const quantStreamLabel = 0x517ea11

func (c *rotatedCodec) Decode(enc *EncodedRow, headAvail, tailAvail []bool) ([]float32, error) {
	return decodeNew(c, enc, headAvail, tailAvail)
}

func (c *rotatedCodec) DecodeInto(rot []float32, enc *EncodedRow, headAvail, tailAvail []bool) error {
	if err := checkDecodeArgs(rot, enc, headAvail, tailAvail); err != nil {
		return err
	}
	if !vecmath.IsPow2(enc.N) {
		return fmt.Errorf("quant: %v row length %d is not a power of two", c.p.Scheme, enc.N)
	}
	switch c.p.Scheme {
	case RHT:
		decodeSign(rot, enc, headAvail, tailAvail)
	case RHTLinear:
		decodeLinear(rot, enc, headAvail, tailAvail)
	case Eden:
		if err := checkScheme(Eden, enc.P); err != nil {
			return err
		}
		decodeEden(rot, enc, headAvail, tailAvail)
	}
	fwht.InverseRandomRotate(rot, enc.Seed)
	return nil
}
