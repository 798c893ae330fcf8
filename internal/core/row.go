package core

import (
	"fmt"

	"trimgrad/internal/par"
	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
)

// geometry is what a Config fixes about every row before a packet arrives:
// the scheme, the head and tail widths its codec produces, and the longest
// row. Both decoders admit metadata against it, so a forged or foreign
// metadata packet costs a rejection and nothing else.
type geometry struct {
	scheme    quant.Scheme
	p, q      int
	rowSize   int
	perPacket int // coordinates a full data packet carries
}

// newGeometry is for a cfg whose Params quant.New has accepted.
func newGeometry(cfg Config) geometry {
	p, q := cfg.Params.Widths()
	return geometry{scheme: cfg.Params.Scheme, p: p, q: q, rowSize: cfg.RowSize,
		perPacket: wire.CoordsPerPacket(p, q)}
}

// admitMeta is the one admission rule for metadata: the configured scheme,
// a row length in (0, RowSize] — a power of two where the scheme rotates,
// or the row could never be finalized — and the P/Q that scheme's Params
// produce. It runs before anything is allocated for the row, so what it
// admits, Reconstruct can decode.
func (g geometry) admitMeta(m *wire.MetaPacket) error {
	if quant.Scheme(m.Scheme) != g.scheme {
		return fmt.Errorf("core: metadata scheme %v != configured %v", quant.Scheme(m.Scheme), g.scheme)
	}
	if m.N == 0 || m.N > uint32(g.rowSize) {
		return fmt.Errorf("core: row length %d outside (0,%d]", m.N, g.rowSize)
	}
	if quant.Rotated(g.scheme) && m.N&(m.N-1) != 0 {
		return fmt.Errorf("core: rotated row length %d is not a power of two", m.N)
	}
	if int(m.P) != g.p || int(m.Q) != g.q {
		return fmt.Errorf("core: metadata P/Q %d/%d != configured %d/%d", m.P, m.Q, g.p, g.q)
	}
	return nil
}

// admitData checks a plain data packet's widths against the configuration.
func (g geometry) admitData(h *wire.Header) error {
	if int(h.P) != g.p || int(h.Q) != g.q {
		return fmt.Errorf("core: packet P/Q %d/%d != configured %d/%d", h.P, h.Q, g.p, g.q)
	}
	return nil
}

// packets returns how many data packets a sender emits for a row of n
// coordinates (derivable from the reliable metadata alone).
func (g geometry) packets(n int) int { return (n + g.perPacket - 1) / g.perPacket }

// nativeRow is one row of a message as both decoders hold it: an
// accumulator in the scheme's native domain (quant.NativeDecoder), written
// as packets arrive, so that reconstructing the row is a copy and
// quant.FinalizeNative. The accumulator is drawn zeroed from the par
// scratch pool — a coordinate nothing arrived for decodes from the prior
// mean, zero — and goes back at the decoder's Release.
type nativeRow struct {
	seed   uint64
	n      int
	native []float32
}

func (r *nativeRow) init(seed uint64, n int) {
	r.seed, r.n = seed, n
	//trimlint:owner transfer the row owns its accumulator until the decoder's Release hands it back, or drops it for the GC
	r.native = par.Float32s(n)
	clear(r.native)
}

// admit checks that a packet (data or aggregate) belongs to this row's
// encoding and lies inside it, returning its slice of the accumulator.
func (r *nativeRow) admit(h *wire.Header) ([]float32, error) {
	if h.Seed != r.seed {
		return nil, fmt.Errorf("core: packet seed %x != row seed %x", h.Seed, r.seed)
	}
	start, count := int(h.Start), int(h.Count)
	if start+count > r.n {
		return nil, fmt.Errorf("core: packet range [%d,%d) outside row of %d", start, start+count, r.n)
	}
	return r.native[start : start+count], nil
}

// finalizeInto leaves the row's gradient-domain values in dst[:n]. The
// accumulator itself is not transformed, so reconstruction is repeatable.
func (r *nativeRow) finalizeInto(dst []float32, scheme quant.Scheme) error {
	dst = dst[:r.n]
	copy(dst, r.native)
	return quant.FinalizeNative(scheme, r.seed, dst)
}

func (r *nativeRow) release() {
	par.PutFloat32s(r.native)
	r.native = nil
}

// maxRows bounds the row ids a decoder admits. Rows live in a slice indexed
// by row id, so the bound is what keeps one forged header from sizing that
// slice: 2^16 rows of the default 2^15 coordinates is a 2^31-coordinate
// message, and the slice itself tops out at 512 KB.
const maxRows = 1 << 16

// rowTable holds a decoder's rows, indexed by row id.
type rowTable[R any] []*R

// at returns row id, or nil when the decoder has no such row.
func (t rowTable[R]) at(id uint32) *R {
	if uint64(id) >= uint64(len(t)) {
		return nil
	}
	return t[id]
}

// ensure returns row id, made by mk on first use.
func (t *rowTable[R]) ensure(id uint32, mk func() *R) (*R, error) {
	if id >= maxRows {
		return nil, fmt.Errorf("core: row id %d beyond the %d rows a message may have", id, maxRows)
	}
	if grow := int(id) + 1 - len(*t); grow > 0 {
		*t = append(*t, make([]*R, grow)...)
	}
	if (*t)[id] == nil {
		(*t)[id] = mk()
	}
	return (*t)[id], nil
}

// bitset is a fixed-size set of a row's coordinates.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }

// anyIn reports whether any coordinate in [lo, hi) is in the set.
func (b bitset) anyIn(lo, hi int) bool {
	for lo < hi {
		w, mask, n := wordMask(lo, hi)
		if b[w]&mask != 0 {
			return true
		}
		lo += n
	}
	return false
}

// setRange adds every coordinate in [lo, hi).
func (b bitset) setRange(lo, hi int) {
	for lo < hi {
		w, mask, n := wordMask(lo, hi)
		b[w] |= mask
		lo += n
	}
}

// wordMask returns the word holding coordinate lo, the mask of the n
// coordinates of [lo, hi) that fall in it, and n.
func wordMask(lo, hi int) (w int, mask uint64, n int) {
	off := lo & 63
	n = min(64-off, hi-lo)
	return lo >> 6, ^uint64(0) >> uint(64-n) << uint(off), n
}
