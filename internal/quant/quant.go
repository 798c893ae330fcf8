// Package quant implements the trimmable gradient encodings of §3 of the
// paper: each gradient coordinate is encoded as a P-bit *head* and a Q-bit
// *tail* such that
//
//   - heads alone are an efficient standalone compression (used when the
//     switch trims the packet), and
//   - heads + tails reconstruct the coordinate at (near-)original precision
//     with no redundancy between the two parts.
//
// Implemented schemes:
//
//	Sign      — sign-magnitude quantization: head = sign bit, head-only
//	            decode to ±σ (§3.1). Exact with tails.
//	SQ        — stochastic quantization: head = unbiased random bit with
//	            p(+1) = (L+v)/2L after clipping to L = 2.5σ (TernGrad-style),
//	            head-only decode to ±L (§3.1).
//	SD        — subtractive dithering: shared dither ε ~ U(−L, L),
//	            head = sign(v+ε), head-only decode to L·sign(v+ε) − ε,
//	            which is exactly unbiased for |v| ≤ L and has input-
//	            independent error (§3.1).
//	RHT       — DRIVE-style: randomized Hadamard transform of each row,
//	            head = sign of the rotated coordinate, head-only decode to
//	            f·sign with the unbiased scale f = ‖V‖²₂/‖R(V)‖₁, then
//	            inverse transform (§3.2). Exact with tails.
//	Linear    — P-bit stochastically-rounded uniform quantization in
//	            [−L, L]; the multi-level head of §5.1 (e.g. P = 8).
//	RHTLinear — RHT followed by a P-bit linear head on the rotated
//	            coordinates (§5.1 multi-level + §3.2 rotation).
//	Eden      — the EDEN extension of DRIVE (footnote 2): RHT rotation
//	            followed by the P-bit Lloyd-Max quantizer optimal for the
//	            normal rotated coordinates (P = 1..4).
//
// Shared randomness (the SQ coin flips, the SD dither, the RHT diagonal)
// is derived from a seed both endpoints compute from (epoch, message, row)
// via xrand.Seed, mirroring the paper's use of torch.cuda.manual_seed.
//
// Per-row side information (σ, L, or f) is carried in EncodedRow.Scale and
// must travel in a small reliable packet that is never trimmed; package
// wire provides that metadata packet type.
package quant

import (
	"errors"
	"fmt"

	"trimgrad/internal/par"
)

// Scheme identifies a trimmable encoding scheme.
type Scheme uint8

const (
	// Sign is sign-magnitude quantization (§3.1).
	Sign Scheme = iota
	// SQ is stochastic quantization (§3.1).
	SQ
	// SD is subtractive dithering (§3.1).
	SD
	// RHT is the randomized-Hadamard-transform sign encoding (§3.2).
	RHT
	// Linear is P-bit stochastic uniform quantization (§5.1).
	Linear
	// RHTLinear composes RHT with a P-bit linear head (§5.1).
	RHTLinear
	// Eden is the EDEN extension of DRIVE (footnote 2 of the paper):
	// RHT rotation followed by the P-bit Lloyd-Max quantizer optimal for
	// the rotated coordinates' normal distribution.
	Eden

	numSchemes
)

// String returns the scheme name as used in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case Sign:
		return "sign"
	case SQ:
		return "sq"
	case SD:
		return "sd"
	case RHT:
		return "rht"
	case Linear:
		return "linear"
	case RHTLinear:
		return "rht-linear"
	case Eden:
		return "eden"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// ParseScheme converts a name (as printed by Scheme.String) back to a
// Scheme.
func ParseScheme(name string) (Scheme, error) {
	for s := Scheme(0); s < numSchemes; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("quant: unknown scheme %q", name)
}

// DefaultClipSigma is the clipping multiplier L = 2.5σ the paper borrows
// from TernGrad for SQ and SD.
const DefaultClipSigma = 2.5

// Params selects and configures a codec.
type Params struct {
	Scheme Scheme
	// P is the head width in bits per coordinate. The classic schemes of
	// §3 use P = 1; Linear and RHTLinear accept 1..16 (§5.1 uses 8).
	P int
	// ClipSigma sets L = ClipSigma·σ for SQ, SD and Linear. Zero means
	// DefaultClipSigma.
	ClipSigma float64
	// TailBits narrows the tail width Q below its full-precision default
	// (31 for sign-head schemes, 32−P for value-head schemes). This is
	// the *ahead-of-time* compression knob of §5.3: a sender that knows
	// about congestion shrinks Q to reduce its bandwidth demand, and the
	// switch may still trim the smaller packets just in time. With a
	// narrowed tail even untrimmed coordinates lose their lowest mantissa
	// bits — the paper's footnote 1. Zero means full precision.
	TailBits int
	// ScaleMode selects the trimmed-decode scale for the RHT scheme.
	ScaleMode ScaleMode
}

// ScaleMode picks how RHT scales sign bits on decode.
type ScaleMode uint8

const (
	// ScaleUnbiased uses f = ‖V‖²₂/‖R(V)‖₁ (the paper's choice): the
	// decode is unbiased, which is what keeps averaged training updates
	// convergent; single-shot NMSE ≈ π/2−1 ≈ 0.571.
	ScaleUnbiased ScaleMode = iota
	// ScaleMMSE uses ‖R(V)‖₁/n, the scale minimizing one-shot MSE
	// (NMSE ≈ 1−2/π ≈ 0.363) at the cost of a systematic bias — the
	// DESIGN.md ablation contrasts the two.
	ScaleMMSE
)

func (p Params) withDefaults() Params {
	if p.P == 0 {
		p.P = 1
	}
	if p.ClipSigma == 0 {
		p.ClipSigma = DefaultClipSigma
	}
	return p
}

// Widths returns the head and tail widths (P and Q, in bits per coordinate)
// of every row a codec built from p encodes. They depend on nothing but p,
// so a receiver configured like its sender knows them before any packet
// arrives and can refuse metadata that claims otherwise.
func (p Params) Widths() (head, tail int) {
	p = p.withDefaults()
	switch p.Scheme {
	case Linear, RHTLinear, Eden:
		// Value heads spend their P bits on a quantization index, so the
		// tail carries what is left of the float's 32.
		return p.P, tailWidth(32-p.P, p.TailBits)
	default:
		return p.P, tailWidth(31, p.TailBits)
	}
}

// EncodedRow is one gradient row after trimmable encoding.
//
// Heads[i] holds the low P bits of coordinate i's head; Tails[i] the low Q
// bits of its tail. Scale is the per-row side information (σ for Sign, L
// for SQ/SD/Linear, f for RHT) that the sender transmits reliably in a
// small metadata packet so that it is available even when every payload
// packet was trimmed.
type EncodedRow struct {
	Scheme Scheme
	P, Q   int
	N      int
	Seed   uint64
	Scale  float64
	Heads  []uint32
	Tails  []uint32
}

// newEncodedRow returns a row of n coordinates for a codec's Encode to
// fill. Heads and Tails come from the par scratch pool and arrive dirty:
// the codec writes all 2n words.
func newEncodedRow(s Scheme, p, q, n int, seed uint64, scale float64) *EncodedRow {
	enc := &EncodedRow{Scheme: s, P: p, Q: q, N: n, Seed: seed, Scale: scale}
	//trimlint:owner transfer the row owns its words from here; handing them back (Release) is optional
	enc.Heads, enc.Tails = par.Uint32s(n), par.Uint32s(n)
	return enc
}

// Release hands Heads and Tails back to the scratch pool every codec's
// Encode draws them from, and empties the row. It is optional, like every
// par Put: a caller that keeps or simply drops the row has ordinary
// ownership of the two slices; one that calls Release must hold no other
// reference to them.
func (e *EncodedRow) Release() {
	par.PutUint32s(e.Heads)
	par.PutUint32s(e.Tails)
	e.Heads, e.Tails = nil, nil
}

// Validate checks internal consistency.
func (e *EncodedRow) Validate() error {
	switch {
	case e == nil:
		return errors.New("quant: nil EncodedRow")
	case e.N < 0:
		return fmt.Errorf("quant: negative N %d", e.N)
	case len(e.Heads) != e.N:
		return fmt.Errorf("quant: Heads length %d != N %d", len(e.Heads), e.N)
	case len(e.Tails) != e.N:
		return fmt.Errorf("quant: Tails length %d != N %d", len(e.Tails), e.N)
	case e.P < 1 || e.P > 16:
		return fmt.Errorf("quant: head width P=%d out of range [1,16]", e.P)
	case e.Q < 0 || e.P+e.Q > 33:
		return fmt.Errorf("quant: tail width Q=%d invalid for P=%d", e.Q, e.P)
	}
	return nil
}

// Codec encodes rows into trimmable head/tail form and decodes them back,
// tolerating any subset of trimmed (missing-tail) coordinates.
//
// Implementations hold only their Params: all per-call state (rotation
// buffers, shared-randomness streams) is derived from the arguments, so
// concurrent Encode/Decode calls on one Codec are safe. core's parallel
// paths rely on this, and still cache per-worker codec instances so a
// future stateful codec degrades to a compile-visible change here rather
// than a data race.
type Codec interface {
	// Name returns the scheme name used in figures and CLI flags.
	Name() string
	// Params returns the configuration the codec was built with.
	Params() Params
	// Encode encodes one row using shared randomness derived from seed.
	// The input row is not modified.
	Encode(row []float32, seed uint64) (*EncodedRow, error)
	// Decode reconstructs a row. tailAvail[i] reports whether coordinate
	// i's tail survived trimming (nil means all tails available).
	// headAvail[i] reports whether the head itself arrived (nil means all
	// heads present): trimming never removes heads, but a *dropped* packet
	// (the baseline transport) loses both. A coordinate with no head
	// decodes to the prior mean, zero, in the scheme's native domain —
	// before the inverse rotation for the RHT family.
	Decode(enc *EncodedRow, headAvail, tailAvail []bool) ([]float32, error)
	// DecodeInto is Decode writing the row into out, which must hold
	// exactly enc.N entries and is fully overwritten: a receiver decodes
	// each row straight into its slice of the gradient.
	DecodeInto(out []float32, enc *EncodedRow, headAvail, tailAvail []bool) error
}

// decodeNew is every codec's Decode: DecodeInto a fresh row.
func decodeNew(c Codec, enc *EncodedRow, headAvail, tailAvail []bool) ([]float32, error) {
	if err := enc.Validate(); err != nil {
		return nil, err
	}
	out := make([]float32, enc.N)
	if err := c.DecodeInto(out, enc, headAvail, tailAvail); err != nil {
		return nil, err
	}
	return out, nil
}

// New constructs the codec described by p.
func New(p Params) (Codec, error) {
	p = p.withDefaults()
	if p.P < 1 || p.P > 16 {
		return nil, fmt.Errorf("quant: head width P=%d out of range [1,16]", p.P)
	}
	if p.TailBits < 0 || p.TailBits > 32 {
		return nil, fmt.Errorf("quant: TailBits=%d out of range [0,32]", p.TailBits)
	}
	if p.ScaleMode > ScaleMMSE {
		return nil, fmt.Errorf("quant: unknown scale mode %d", p.ScaleMode)
	}
	switch p.Scheme {
	case Sign, SQ, SD:
		if p.P != 1 {
			return nil, fmt.Errorf("quant: scheme %v requires P=1, got %d", p.Scheme, p.P)
		}
	}
	switch p.Scheme {
	case Sign:
		return &signCodec{p: p}, nil
	case SQ:
		return &sqCodec{p: p}, nil
	case SD:
		return &sdCodec{p: p}, nil
	case RHT:
		if p.P != 1 {
			return nil, fmt.Errorf("quant: RHT uses P=1 (use rht-linear for multi-bit), got %d", p.P)
		}
		return &rhtCodec{p: p}, nil
	case Linear:
		return &linearCodec{p: p}, nil
	case RHTLinear:
		return &rhtLinearCodec{p: p}, nil
	case Eden:
		if p.P > 4 {
			return nil, fmt.Errorf("quant: eden head width P=%d out of range [1,4]", p.P)
		}
		return &edenCodec{p: p}, nil
	default:
		return nil, fmt.Errorf("quant: unknown scheme %v", p.Scheme)
	}
}

// MustNew is New but panics on error; for tests and tables of codecs.
func MustNew(p Params) Codec {
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}

// AllTrimmed returns a tailAvail slice marking every coordinate trimmed.
func AllTrimmed(n int) []bool { return make([]bool, n) }

// NoneTrimmed returns a tailAvail slice marking every tail present.
func NoneTrimmed(n int) []bool {
	t := make([]bool, n)
	for i := range t {
		t[i] = true
	}
	return t
}

func checkDecodeArgs(out []float32, enc *EncodedRow, headAvail, tailAvail []bool) error {
	if err := enc.Validate(); err != nil {
		return err
	}
	if len(out) != enc.N {
		return fmt.Errorf("quant: output length %d != N %d", len(out), enc.N)
	}
	if headAvail != nil && len(headAvail) != enc.N {
		return fmt.Errorf("quant: headAvail length %d != N %d", len(headAvail), enc.N)
	}
	if tailAvail != nil && len(tailAvail) != enc.N {
		return fmt.Errorf("quant: tailAvail length %d != N %d", len(tailAvail), enc.N)
	}
	return nil
}

// avail reports mask[i], treating a nil mask as all-available.
func avail(mask []bool, i int) bool { return mask == nil || mask[i] }
