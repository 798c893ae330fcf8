package quant

import (
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

// signCodec implements sign-magnitude quantization (§3.1): the head is the
// sign bit and the reliably-delivered scale is the row's standard
// deviation σ; trimmed coordinates decode to ±σ.
type signCodec struct{ p Params }

func (c *signCodec) Name() string   { return Sign.String() }
func (c *signCodec) Params() Params { return c.p }

func (c *signCodec) Encode(row []float32, seed uint64) (*EncodedRow, error) {
	_, q := c.p.Widths()
	enc := newEncodedRow(Sign, 1, q, len(row), seed, vecmath.Std(row))
	encodeSign(enc, row)
	return enc, nil
}

func (c *signCodec) Decode(enc *EncodedRow, headAvail, tailAvail []bool) ([]float32, error) {
	return decodeNew(c, enc, headAvail, tailAvail)
}

func (c *signCodec) DecodeInto(out []float32, enc *EncodedRow, headAvail, tailAvail []bool) error {
	if err := checkDecodeArgs(out, enc, headAvail, tailAvail); err != nil {
		return err
	}
	decodeSign(out, enc, headAvail, tailAvail)
	return nil
}

// encodeSign is the sign head's encode loop, Sign's over the row and RHT's
// over the rotated row: each coordinate splits into its sign bit and the
// top Q of the 31 bits below it.
func encodeSign(enc *EncodedRow, row []float32) {
	heads, tails, q := enc.Heads[:len(row)], enc.Tails[:len(row)], enc.Q
	for i, v := range row {
		heads[i], tails[i] = splitSignQ(v, q)
	}
}

// decodeSign is the sign head's decode loop: a coordinate with its tail is
// exact, a head alone decodes to ±Scale and a missing head to zero, the
// mean of the coordinates Sign and RHT encode.
func decodeSign(out []float32, enc *EncodedRow, headAvail, tailAvail []bool) {
	scale := float32(enc.Scale)
	heads, tails, q := enc.Heads[:len(out)], enc.Tails[:len(out)], enc.Q
	for i := range out {
		switch {
		case !avail(headAvail, i):
			out[i] = 0
		case avail(tailAvail, i):
			out[i] = joinSignQ(heads[i], tails[i], q)
		default:
			out[i] = signValue(heads[i]) * scale
		}
	}
}

// sqCodec implements stochastic quantization (§3.1): after clipping to
// L = ClipSigma·σ, a coordinate v encodes to +1 with probability
// (L+v)/2L, yielding an unbiased ±L head-only decode. The coin flips come
// from the shared seed so a run is exactly reproducible (§5.4).
type sqCodec struct{ p Params }

func (c *sqCodec) Name() string   { return SQ.String() }
func (c *sqCodec) Params() Params { return c.p }

func (c *sqCodec) Encode(row []float32, seed uint64) (*EncodedRow, error) {
	n := len(row)
	limit := float64(c.p.ClipSigma * vecmath.Std(row))
	_, q := c.p.Widths()
	enc := newEncodedRow(SQ, 1, q, n, seed, limit)
	r := xrand.New(seed)
	heads, tails := enc.Heads[:n], enc.Tails[:n]
	for i, v := range row {
		cv := clipTo(v, limit)
		// p(+1) = (L+v)/2L; with L = 0 every coordinate is 0 and the bit
		// is a fair coin whose decode ±L = ±0 is exact anyway.
		var pPlus float64
		if limit > 0 {
			pPlus = (limit + float64(cv)) / (2 * limit)
		} else {
			pPlus = 0.5
		}
		// The coin picks the head (0 is +1, 1 is −1) by a select, not by a
		// jump the branch predictor would miss half the time.
		heads[i] = 1 - b2u(r.Float64() < pPlus)
		tails[i] = tailTopQ(v, q)
	}
	return enc, nil
}

func (c *sqCodec) Decode(enc *EncodedRow, headAvail, tailAvail []bool) ([]float32, error) {
	return decodeNew(c, enc, headAvail, tailAvail)
}

func (c *sqCodec) DecodeInto(out []float32, enc *EncodedRow, headAvail, tailAvail []bool) error {
	if err := checkDecodeArgs(out, enc, headAvail, tailAvail); err != nil {
		return err
	}
	limit := float32(enc.Scale)
	heads, tails, q := enc.Heads[:len(out)], enc.Tails[:len(out)], enc.Q
	for i := range out {
		switch {
		case !avail(headAvail, i):
			out[i] = 0
		case avail(tailAvail, i):
			out[i] = joinTopQ(tails[i], q)
		default:
			out[i] = signValue(heads[i]) * limit
		}
	}
	return nil
}

// sdCodec implements subtractive dithering (§3.1). Sender and receiver
// derive the same per-coordinate dither ε_i ~ U(−L, L) from the shared
// seed; the head is sign(v+ε_i) and a trimmed coordinate decodes to
// L·sign(v+ε_i) − ε_i. With a sign (two-level, step-2L) quantizer the
// Schuchman condition requires dither uniform over a full quantization
// step, so ε spans (−L, L); the estimate is then exactly unbiased for
// |v| ≤ L and its error is independent of the input, which is SD's
// advantage over SQ that the paper cites.
type sdCodec struct{ p Params }

func (c *sdCodec) Name() string   { return SD.String() }
func (c *sdCodec) Params() Params { return c.p }

func (c *sdCodec) Encode(row []float32, seed uint64) (*EncodedRow, error) {
	n := len(row)
	limit := float64(c.p.ClipSigma * vecmath.Std(row))
	_, q := c.p.Widths()
	enc := newEncodedRow(SD, 1, q, n, seed, limit)
	r := xrand.New(seed)
	heads, tails := enc.Heads[:n], enc.Tails[:n]
	for i, v := range row {
		cv := float64(clipTo(v, limit))
		eps := r.Uniform(-limit, limit)
		heads[i] = 1 - b2u(cv+eps >= 0) // 0 is +1, 1 is −1
		tails[i] = tailTopQ(v, q)
	}
	return enc, nil
}

func (c *sdCodec) Decode(enc *EncodedRow, headAvail, tailAvail []bool) ([]float32, error) {
	return decodeNew(c, enc, headAvail, tailAvail)
}

func (c *sdCodec) DecodeInto(out []float32, enc *EncodedRow, headAvail, tailAvail []bool) error {
	if err := checkDecodeArgs(out, enc, headAvail, tailAvail); err != nil {
		return err
	}
	limit := enc.Scale
	// Regenerate the same dither stream the encoder used. The stream is
	// consumed for every coordinate (trimmed, dropped or not) to stay
	// aligned with the sender.
	r := xrand.New(enc.Seed)
	heads, tails, q := enc.Heads[:len(out)], enc.Tails[:len(out)], enc.Q
	for i := range out {
		eps := r.Uniform(-limit, limit)
		switch {
		case !avail(headAvail, i):
			out[i] = 0
		case avail(tailAvail, i):
			out[i] = joinTopQ(tails[i], q)
		default:
			out[i] = float32(float64(float64(signValue(heads[i]))*limit) - eps)
		}
	}
	return nil
}

// linearCodec implements P-bit stochastically-rounded uniform quantization
// in [−L, L], the multi-level head of §5.1. P = 1 degenerates to SQ.
type linearCodec struct{ p Params }

func (c *linearCodec) Name() string   { return Linear.String() }
func (c *linearCodec) Params() Params { return c.p }

func (c *linearCodec) Encode(row []float32, seed uint64) (*EncodedRow, error) {
	limit := float64(c.p.ClipSigma * vecmath.Std(row))
	_, q := c.p.Widths()
	enc := newEncodedRow(Linear, c.p.P, q, len(row), seed, limit)
	encodeLinear(enc, row, xrand.New(seed))
	return enc, nil
}

func (c *linearCodec) Decode(enc *EncodedRow, headAvail, tailAvail []bool) ([]float32, error) {
	return decodeNew(c, enc, headAvail, tailAvail)
}

func (c *linearCodec) DecodeInto(out []float32, enc *EncodedRow, headAvail, tailAvail []bool) error {
	if err := checkDecodeArgs(out, enc, headAvail, tailAvail); err != nil {
		return err
	}
	decodeLinear(out, enc, headAvail, tailAvail)
	return nil
}

// encodeLinear is the linear head's encode loop, Linear's over the row and
// RHTLinear's over the rotated row: each head is the coordinate's level
// index under the clip limit enc.Scale, rounded stochastically with coins
// from r, and each tail the top Q bits of its float.
func encodeLinear(enc *EncodedRow, row []float32, r *xrand.Rand) {
	heads, tails, q := enc.Heads[:len(row)], enc.Tails[:len(row)], enc.Q
	if limit := enc.Scale; limit > 0 {
		levels := linearLevels(enc.P) // index range 0..levels
		for i, v := range row {
			cv := float64(clipTo(v, limit))
			// Map [−L, L] to [0, levels] and round stochastically so the
			// head-only decode is unbiased.
			x := float64((cv + limit) / (2 * limit) * levels)
			lo := uint32(x)
			frac := x - float64(lo)
			// The top level draws no coin, so the stream advances only
			// below it; the coin itself picks lo or lo+1 by a select.
			if float64(lo) < levels {
				lo += b2u(r.Float64() < frac)
			}
			heads[i] = lo
		}
	} else {
		clear(heads)
	}
	for i, v := range row {
		tails[i] = tailTopQ(v, q)
	}
}

// decodeLinear is the linear head's decode loop: a coordinate with its
// tail decodes to its top Q bits, a head alone to its level's value and a
// missing head to zero.
func decodeLinear(out []float32, enc *EncodedRow, headAvail, tailAvail []bool) {
	heads, tails, q := enc.Heads[:len(out)], enc.Tails[:len(out)], enc.Q
	limit, levels := enc.Scale, linearLevels(enc.P)
	for i := range out {
		switch {
		case !avail(headAvail, i):
			out[i] = 0
		case avail(tailAvail, i):
			out[i] = joinTopQ(tails[i], q)
		default:
			out[i] = linearValue(heads[i], limit, levels)
		}
	}
}

// linearLevels is the top level index of a P-bit linear head.
func linearLevels(p int) float64 { return float64(int(1)<<uint(p)) - 1 }

// linearValue maps a level index back to its value in [−L, L], given the
// top level index of the head (linearLevels).
func linearValue(k uint32, limit, levels float64) float32 {
	if limit <= 0 || levels <= 0 {
		return 0
	}
	return float32(-limit + 2*limit*float64(k)/levels)
}

// clipTo bounds v into [−limit, limit].
func clipTo(v float32, limit float64) float32 {
	if float64(v) > limit {
		return float32(limit)
	}
	if float64(v) < -limit {
		return float32(-limit)
	}
	return v
}
