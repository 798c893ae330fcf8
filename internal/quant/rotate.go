package quant

import (
	"fmt"

	"trimgrad/internal/fwht"
	"trimgrad/internal/par"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

// rhtCodec implements the paper's DRIVE-style encoding (§3.2): the row is
// rotated with the Randomized Hadamard Transform under a shared seed, the
// head is the sign bit of each rotated coordinate, and the reliably-sent
// scale is f = ‖V‖²₂/‖R(V)‖₁ so that head-only coordinates decode to
// f·sign(r) without bias. With tails present the rotated coordinate is
// recovered exactly, and the inverse transform reproduces the original row
// bit-for-bit up to float addition order.
//
// Rows must be a power of two long (the core pipeline splits blobs into
// 2^15-entry rows exactly as the paper does for GPU L1 residency).
type rhtCodec struct{ p Params }

func (c *rhtCodec) Name() string   { return RHT.String() }
func (c *rhtCodec) Params() Params { return c.p }

func (c *rhtCodec) Encode(row []float32, seed uint64) (*EncodedRow, error) {
	n := len(row)
	if !vecmath.IsPow2(n) {
		return nil, fmt.Errorf("quant: rht row length %d is not a power of two", n)
	}
	// The rotation buffer is transient (only its sign/tail bits survive
	// into the EncodedRow), so it comes from the scratch arena instead of
	// a fresh allocation per row.
	rot := par.Float32s(n)
	defer par.PutFloat32s(rot)
	copy(rot, row)
	fwht.RandomRotate(rot, seed)
	scale := fwht.UnbiasedScale(row, rot)
	if c.p.ScaleMode == ScaleMMSE {
		// Mean |r|: the one-shot MSE-optimal scale (biased toward zero).
		scale = vecmath.L1Norm(rot) / float64(n)
	}
	_, q := c.p.Widths()
	enc := newEncodedRow(RHT, 1, q, n, seed, scale)
	for i, r := range rot {
		enc.Heads[i], enc.Tails[i] = splitSignQ(r, q)
	}
	return enc, nil
}

func (c *rhtCodec) Decode(enc *EncodedRow, headAvail, tailAvail []bool) ([]float32, error) {
	return decodeNew(c, enc, headAvail, tailAvail)
}

func (c *rhtCodec) DecodeInto(rot []float32, enc *EncodedRow, headAvail, tailAvail []bool) error {
	if err := checkDecodeArgs(rot, enc, headAvail, tailAvail); err != nil {
		return err
	}
	if !vecmath.IsPow2(enc.N) {
		return fmt.Errorf("quant: rht row length %d is not a power of two", enc.N)
	}
	f := float32(enc.Scale)
	for i := range rot {
		switch {
		case !avail(headAvail, i):
			rot[i] = 0 // rotated coordinates are zero-mean
		case avail(tailAvail, i):
			rot[i] = joinSignQ(enc.Heads[i], enc.Tails[i], enc.Q)
		default:
			rot[i] = signValue(enc.Heads[i]) * f
		}
	}
	fwht.InverseRandomRotate(rot, enc.Seed)
	return nil
}

// rhtLinearCodec composes the RHT rotation with a P-bit linear head on the
// rotated coordinates — the multi-level trimming codec of §5.1 (e.g. P = 8
// lets a switch trim a packet to ~25% instead of ~3%). The reliable scale
// is the clip limit L = ClipSigma·σ(R(V)) of the rotated row.
type rhtLinearCodec struct{ p Params }

func (c *rhtLinearCodec) Name() string   { return RHTLinear.String() }
func (c *rhtLinearCodec) Params() Params { return c.p }

func (c *rhtLinearCodec) Encode(row []float32, seed uint64) (*EncodedRow, error) {
	n := len(row)
	if !vecmath.IsPow2(n) {
		return nil, fmt.Errorf("quant: rht-linear row length %d is not a power of two", n)
	}
	rot := par.Float32s(n)
	defer par.PutFloat32s(rot)
	copy(rot, row)
	fwht.RandomRotate(rot, seed)
	limit := c.p.ClipSigma * vecmath.Std(rot)
	_, q := c.p.Widths()
	enc := newEncodedRow(RHTLinear, c.p.P, q, n, seed, limit)
	// The quantization coin flips must not collide with the rotation's
	// diagonal stream, so derive a distinct sub-seed.
	r := xrand.New(xrand.Seed(seed, quantStreamLabel))
	encodeLinearHeads(enc, rot, limit, c.p.P, r)
	for i, v := range rot {
		enc.Tails[i] = tailTopQ(v, q)
	}
	return enc, nil
}

// quantStreamLabel separates the stochastic-rounding stream from the RHT
// diagonal stream derived from the same row seed.
const quantStreamLabel = 0x517ea11

func (c *rhtLinearCodec) Decode(enc *EncodedRow, headAvail, tailAvail []bool) ([]float32, error) {
	return decodeNew(c, enc, headAvail, tailAvail)
}

func (c *rhtLinearCodec) DecodeInto(rot []float32, enc *EncodedRow, headAvail, tailAvail []bool) error {
	if err := checkDecodeArgs(rot, enc, headAvail, tailAvail); err != nil {
		return err
	}
	if !vecmath.IsPow2(enc.N) {
		return fmt.Errorf("quant: rht-linear row length %d is not a power of two", enc.N)
	}
	for i := range rot {
		switch {
		case !avail(headAvail, i):
			rot[i] = 0 // rotated coordinates are zero-mean
		case avail(tailAvail, i):
			rot[i] = joinTopQ(enc.Tails[i], enc.Q)
		default:
			rot[i] = linearLevelValue(enc.Heads[i], enc.Scale, enc.P)
		}
	}
	fwht.InverseRandomRotate(rot, enc.Seed)
	return nil
}
