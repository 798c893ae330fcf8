package quant

import (
	"fmt"

	"trimgrad/internal/fwht"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

// NativeDecoder decodes individual packets of a row into the scheme's
// *native* value domain — the domain in which coordinates are additive.
// For the scalar schemes (Sign, SQ, SD, Linear) that is the gradient
// domain itself; for the RHT family (RHT, RHTLinear, Eden) it is the
// rotated domain, before the inverse Hadamard transform. Because the
// rotation seed derives from (epoch, message, row) with no flow
// component, every worker's same row rotates identically, so rotated
// coordinates from different flows sum coordinate-by-coordinate. That is
// the property an in-network aggregating switch exploits: it sums native
// values per packet, and the receiver applies FinalizeNative once per
// reassembled row.
//
// A NativeDecoder reproduces Codec.Decode values bit-for-bit per
// coordinate: PacketValues(start, …, tailCount) returns exactly what the
// full decode would place at positions start..start+len(heads)-1 given
// that only the first tailCount tails survived (and all heads arrived).
//
// A NativeDecoder is not safe for concurrent use: for SD it carries the
// row's dither stream from one packet to the next.
type NativeDecoder struct {
	scheme Scheme
	p, q   int
	scale  float64
	seed   uint64
	// What a head alone decodes to is fixed by the row's scale, so it is
	// worked out once here, by the multiplications Codec.Decode performs per
	// coordinate (a NaN or infinite scale lands on the same bits): ±scale
	// for the sign heads — rounded to float32 for Sign, SQ and RHT, kept
	// wide for SD, which subtracts the dither first — and Eden's 2^P scaled
	// centroids. Linear heads are too many to tabulate (P ≤ 16).
	pm32 [2]float32
	pm64 [2]float64
	eden [1 << 4]float32
	// SD only: the row's dither stream and the row coordinate its next
	// draw belongs to. Packets arriving in order continue the stream; it is
	// re-created only to go backwards.
	dither   *xrand.Rand
	ditherAt int
}

// NewNativeDecoder builds a native-domain decoder for one row's packets.
// scale is the row's reliable side information (σ, L or f — the
// EncodedRow.Scale carried by the metadata packet) and seed the shared
// per-row randomness seed.
func NewNativeDecoder(scheme Scheme, p, q int, scale float64, seed uint64) (*NativeDecoder, error) {
	if err := checkScheme(scheme, p); err != nil {
		return nil, err
	}
	if q < 0 || q > 32 {
		return nil, fmt.Errorf("quant: tail width Q=%d out of range [0,32]", q)
	}
	d := &NativeDecoder{scheme: scheme, p: p, q: q, scale: scale, seed: seed}
	for bit := range d.pm32 {
		d.pm32[bit] = signValue(uint32(bit)) * float32(scale)
		d.pm64[bit] = float64(signValue(uint32(bit))) * scale
	}
	if scheme == Eden {
		for idx, v := range edenQuantizers[p].values {
			d.eden[idx] = float32(v * scale)
		}
	}
	return d, nil
}

// PacketValues decodes one packet's coordinates into the native domain,
// writing them to out, which must have exactly len(heads) entries (callers
// on a per-packet path keep one slice and reuse it). The packet carries
// heads[i]/tails[i] for row coordinates start..start+len(heads)-1; tails
// are meaningful only for i < tailCount (the packet's survivor prefix).
// That makes a packet two runs — a full-precision prefix and a head-only
// suffix — and each is one loop of its scheme's own.
//
// The SD dither stream is consumed per row coordinate from index 0, so
// start positions this packet inside the stream exactly as the full-row
// decode would — in whatever order, and however often, packets arrive.
func (d *NativeDecoder) PacketValues(out []float32, start int, heads, tails []uint32, tailCount int) error {
	n := len(heads)
	if len(out) != n {
		return fmt.Errorf("quant: output length %d != heads %d", len(out), n)
	}
	if len(tails) < tailCount || tailCount > n || tailCount < 0 {
		return fmt.Errorf("quant: tailCount %d out of range (heads %d, tails %d)",
			tailCount, n, len(tails))
	}
	// q is read once: a store through out could, for all the compiler
	// knows, change d.
	full, fullHeads, fullTails, q := out[:tailCount], heads[:tailCount], tails[:tailCount], d.q
	switch d.scheme {
	case Sign, RHT:
		for i := range full {
			full[i] = joinSignQ(fullHeads[i], fullTails[i], q)
		}
	default:
		for i := range full {
			full[i] = joinTopQ(fullTails[i], q)
		}
	}

	out, heads = out[tailCount:], heads[tailCount:]
	switch d.scheme {
	case Sign, SQ, RHT:
		for i, h := range heads {
			out[i] = d.pm32[h&1]
		}
	case SD:
		if len(heads) == 0 {
			break // an untrimmed packet leaves the stream where it is
		}
		dither := d.ditherFrom(start + tailCount)
		for i, h := range heads {
			out[i] = float32(d.pm64[h&1] - dither.Uniform(-d.scale, d.scale))
		}
		d.ditherAt += len(heads)
	case Linear, RHTLinear:
		levels := linearLevels(d.p)
		for i, h := range heads {
			out[i] = linearValue(h, d.scale, levels)
		}
	case Eden:
		mask := uint32(1)<<uint(d.p) - 1
		for i, h := range heads {
			out[i] = d.eden[h&mask]
		}
	}
	return nil
}

// ditherFrom returns the row's SD dither stream positioned so that its
// next draw is row coordinate at's: every coordinate before it costs one
// draw whether or not anything decodes from it.
func (d *NativeDecoder) ditherFrom(at int) *xrand.Rand {
	if d.dither == nil || at < d.ditherAt {
		d.dither, d.ditherAt = xrand.New(d.seed), 0
	}
	for ; d.ditherAt < at; d.ditherAt++ {
		d.dither.Uint64()
	}
	return d.dither
}

// Rotated reports whether the scheme's native domain is the RHT-rotated
// domain, i.e. whether FinalizeNative applies an inverse transform.
func Rotated(s Scheme) bool { return s.info().rotated }

// FinalizeNative converts a fully-assembled native-domain row back to the
// gradient domain: the inverse randomized Hadamard transform for the
// rotated schemes, a no-op for the scalar ones. The row is transformed in
// place.
func FinalizeNative(s Scheme, seed uint64, row []float32) error {
	if !Rotated(s) {
		return nil
	}
	if !vecmath.IsPow2(len(row)) {
		return fmt.Errorf("quant: rotated row length %d is not a power of two", len(row))
	}
	fwht.InverseRandomRotate(row, seed)
	return nil
}
