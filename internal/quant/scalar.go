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
	n := len(row)
	_, q := c.p.Widths()
	enc := newEncodedRow(Sign, 1, q, n, seed, vecmath.Std(row))
	for i, v := range row {
		enc.Heads[i], enc.Tails[i] = splitSignQ(v, q)
	}
	return enc, nil
}

func (c *signCodec) Decode(enc *EncodedRow, headAvail, tailAvail []bool) ([]float32, error) {
	return decodeNew(c, enc, headAvail, tailAvail)
}

func (c *signCodec) DecodeInto(out []float32, enc *EncodedRow, headAvail, tailAvail []bool) error {
	if err := checkDecodeArgs(out, enc, headAvail, tailAvail); err != nil {
		return err
	}
	sigma := float32(enc.Scale)
	for i := range out {
		switch {
		case !avail(headAvail, i):
			out[i] = 0
		case avail(tailAvail, i):
			out[i] = joinSignQ(enc.Heads[i], enc.Tails[i], enc.Q)
		default:
			out[i] = signValue(enc.Heads[i]) * sigma
		}
	}
	return nil
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
	limit := c.p.ClipSigma * vecmath.Std(row)
	_, q := c.p.Widths()
	enc := newEncodedRow(SQ, 1, q, n, seed, limit)
	r := xrand.New(seed)
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
		if r.Float64() < pPlus {
			enc.Heads[i] = 0 // +1
		} else {
			enc.Heads[i] = 1 // −1
		}
		enc.Tails[i] = tailTopQ(v, q)
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
	for i := range out {
		switch {
		case !avail(headAvail, i):
			out[i] = 0
		case avail(tailAvail, i):
			out[i] = joinTopQ(enc.Tails[i], enc.Q)
		default:
			out[i] = signValue(enc.Heads[i]) * limit
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
	limit := c.p.ClipSigma * vecmath.Std(row)
	_, q := c.p.Widths()
	enc := newEncodedRow(SD, 1, q, n, seed, limit)
	r := xrand.New(seed)
	for i, v := range row {
		cv := float64(clipTo(v, limit))
		eps := r.Uniform(-limit, limit)
		if cv+eps >= 0 {
			enc.Heads[i] = 0 // +1
		} else {
			enc.Heads[i] = 1 // −1
		}
		enc.Tails[i] = tailTopQ(v, q)
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
	for i := range out {
		eps := r.Uniform(-limit, limit)
		switch {
		case !avail(headAvail, i):
			out[i] = 0
		case avail(tailAvail, i):
			out[i] = joinTopQ(enc.Tails[i], enc.Q)
		default:
			out[i] = float32(float64(signValue(enc.Heads[i]))*limit - eps)
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
	n := len(row)
	limit := c.p.ClipSigma * vecmath.Std(row)
	_, q := c.p.Widths()
	enc := newEncodedRow(Linear, c.p.P, q, n, seed, limit)
	r := xrand.New(seed)
	encodeLinearHeads(enc, row, limit, c.p.P, r)
	for i, v := range row {
		enc.Tails[i] = tailTopQ(v, q)
	}
	return enc, nil
}

func (c *linearCodec) Decode(enc *EncodedRow, headAvail, tailAvail []bool) ([]float32, error) {
	return decodeNew(c, enc, headAvail, tailAvail)
}

func (c *linearCodec) DecodeInto(out []float32, enc *EncodedRow, headAvail, tailAvail []bool) error {
	if err := checkDecodeArgs(out, enc, headAvail, tailAvail); err != nil {
		return err
	}
	for i := range out {
		switch {
		case !avail(headAvail, i):
			out[i] = 0
		case avail(tailAvail, i):
			out[i] = joinTopQ(enc.Tails[i], enc.Q)
		default:
			out[i] = linearLevelValue(enc.Heads[i], enc.Scale, enc.P)
		}
	}
	return nil
}

// encodeLinearHeads fills enc.Heads with stochastically-rounded level
// indices for row under clip limit. Shared by Linear and RHTLinear.
func encodeLinearHeads(enc *EncodedRow, row []float32, limit float64, p int, r *xrand.Rand) {
	levels := float64(int(1)<<uint(p)) - 1 // index range 0..levels
	for i, v := range row {
		if limit <= 0 {
			enc.Heads[i] = 0
			continue
		}
		cv := float64(clipTo(v, limit))
		// Map [−L, L] to [0, levels] and round stochastically so the
		// head-only decode is unbiased.
		x := (cv + limit) / (2 * limit) * levels
		lo := uint32(x)
		frac := x - float64(lo)
		k := lo
		if float64(lo) < levels && r.Float64() < frac {
			k = lo + 1
		}
		enc.Heads[i] = k
	}
}

// linearLevelValue maps a P-bit level index back to its value in [−L, L].
func linearLevelValue(k uint32, limit float64, p int) float32 {
	return linearValue(k, limit, linearLevels(p))
}

// linearLevels is the top level index of a P-bit linear head.
func linearLevels(p int) float64 { return float64(int(1)<<uint(p)) - 1 }

// linearValue is linearLevelValue with the level count worked out by the
// caller, once per run of coordinates.
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
