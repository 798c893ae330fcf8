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
	scheme    Scheme
	p, q      int
	scale     float64
	seed      uint64
	centroids []float64 // Eden only
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
	if scheme >= numSchemes {
		return nil, fmt.Errorf("quant: unknown scheme %v", scheme)
	}
	if p < 1 || p > 16 {
		return nil, fmt.Errorf("quant: head width P=%d out of range [1,16]", p)
	}
	if q < 0 || q > 32 {
		return nil, fmt.Errorf("quant: tail width Q=%d out of range [0,32]", q)
	}
	d := &NativeDecoder{scheme: scheme, p: p, q: q, scale: scale, seed: seed}
	if scheme == Eden {
		c, ok := lloydMaxCentroids[p]
		if !ok {
			return nil, fmt.Errorf("quant: eden head width P=%d not in [1,4]", p)
		}
		d.centroids = c
	}
	return d, nil
}

// PacketValues decodes one packet's coordinates into the native domain,
// writing them to out, which must have exactly len(heads) entries (callers
// on a per-packet path keep one slice and reuse it). The packet carries
// heads[i]/tails[i] for row coordinates start..start+len(heads)-1; tails
// are meaningful only for i < tailCount (the packet's survivor prefix).
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
	var dither *xrand.Rand
	if d.scheme == SD {
		if d.dither == nil || start < d.ditherAt {
			d.dither, d.ditherAt = xrand.New(d.seed), 0
		}
		dither = d.dither
		for ; d.ditherAt < start; d.ditherAt++ {
			dither.Uniform(-d.scale, d.scale)
		}
		d.ditherAt += n
	}
	for i := 0; i < n; i++ {
		var eps float64
		if dither != nil {
			eps = dither.Uniform(-d.scale, d.scale)
		}
		if i < tailCount {
			switch d.scheme {
			case Sign, RHT:
				out[i] = joinSignQ(heads[i], tails[i], d.q)
			default:
				out[i] = joinTopQ(tails[i], d.q)
			}
			continue
		}
		switch d.scheme {
		case Sign, SQ, RHT:
			out[i] = signValue(heads[i]) * float32(d.scale)
		case SD:
			out[i] = float32(float64(signValue(heads[i]))*d.scale - eps)
		case Linear, RHTLinear:
			out[i] = linearLevelValue(heads[i], d.scale, d.p)
		case Eden:
			out[i] = float32(edenValue(heads[i], d.centroids) * d.scale)
		}
	}
	return nil
}

// Rotated reports whether the scheme's native domain is the RHT-rotated
// domain, i.e. whether FinalizeNative applies an inverse transform.
func Rotated(s Scheme) bool {
	return s == RHT || s == RHTLinear || s == Eden
}

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
