package core

import (
	"fmt"
	"math/bits"

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

// parked is one admitted packet in its row's arrival log: a reference to the
// bytes Handle was given, and what admission read from the checked header
// and tail count. Replay unpacks by these fields; it never parses the
// buffer's header again.
type parked struct {
	pkt              []byte
	start, flow      uint32
	count, tailCount uint16
	agg              bool // an aggregate: float32 sums, no bits to decode
	fresh            bool // Decoder: none of the range had arrived before
}

// early is a data packet that outran the metadata it is admitted against:
// checked on arrival, kept with the header it was checked under.
type early struct {
	pkt       []byte
	h         wire.Header
	tailCount int
}

// maxPendingPerRow bounds how many early data packets one row (one flow of
// a SumDecoder's row) buffers while its metadata is in flight. Past the
// bound, further early arrivals are rejected — a sender cannot exhaust
// receiver memory by withholding metadata.
const maxPendingPerRow = 256

// nativeRow is one row of a message as both decoders hold it: its geometry
// and the arrival log Reconstruct replays, in order, into the row's slice
// of the output. The log is sized once, for the packets the row's senders
// emit, and holds at most limit: twice that (a range can bring news twice:
// heads, then tails) plus slack — none for a Decoder, maxPendingPerRow for
// a SumDecoder, to which every packet is news, a duplicate included — so
// parked memory is bounded by the row's geometry.
type nativeRow struct {
	seed  uint64
	n     int
	log   []parked
	limit int
	// overlaps: a Decoder parked a packet that is not fresh, so replay has to
	// rebuild presence to know which of its coordinates are news.
	overlaps bool
}

func (r *nativeRow) init(seed uint64, n, packets, slack int) {
	r.seed, r.n, r.log, r.limit = seed, n, make([]parked, 0, packets), 2*packets+slack
}

// admit checks that a packet (data or aggregate) belongs to this row's
// encoding and lies inside it.
func (r *nativeRow) admit(h *wire.Header) error {
	if h.Seed != r.seed {
		return fmt.Errorf("core: packet seed %x != row seed %x", h.Seed, r.seed)
	}
	if start, count := int(h.Start), int(h.Count); start+count > r.n {
		return fmt.Errorf("core: packet range [%d,%d) outside row of %d", start, start+count, r.n)
	}
	return nil
}

// park appends an admitted packet to the log, or refuses it when the log
// holds all a row may.
func (r *nativeRow) park(e parked) error {
	if len(r.log) >= r.limit {
		return fmt.Errorf("core: row arrival log full at %d packets", len(r.log))
	}
	r.log = append(r.log, e)
	return nil
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

// presence says which of a row's coordinates have their head, and which
// their tail too. It is what makes duplicate and overlapping deliveries
// idempotent — a trimmed copy never replaces the full-precision value an
// earlier copy brought, a full copy upgrades a trimmed one — and what the
// coordinate-level Stats are counted from. tails ⊆ heads: a tail only
// arrives behind its head.
type presence struct{ heads, tails []uint64 }

func newPresence(n int) presence {
	words := (n + 63) / 64
	sets := make([]uint64, 2*words)
	return presence{sets[:words], sets[words:]}
}

// arrive is the presence rule, the one place that decides what is news. A
// packet carries the heads of [start, start+count) and the tails of the
// first tailCount of them; a coordinate of it is news when it brings a tail
// where there was none or a head where there was nothing. arrive returns how
// many coordinates gain a head and how many a tail — both zero: the packet is
// no news — records the packet if record is set and, given the packet's
// decode in vals, stores the news coordinates' values into dst.
func (p presence) arrive(start, count, tailCount int, record bool, dst, vals []float32) (heads, tails int) {
	for lo, hi, fullEnd := start, start+count, start+tailCount; lo < hi; {
		w, mask, n := wordMask(lo, hi)
		var full uint64
		if lo < fullEnd {
			_, full, _ = wordMask(lo, fullEnd)
		}
		gainH, gainT := mask&^p.heads[w], full&^p.tails[w]
		for news := gainT | gainH&^full; vals != nil && news != 0; news &= news - 1 {
			i := w<<6 + bits.TrailingZeros64(news) - start
			dst[i] = vals[i]
		}
		if record {
			p.heads[w] |= mask
			p.tails[w] |= full
		}
		heads += bits.OnesCount64(gainH)
		tails += bits.OnesCount64(gainT)
		lo += n
	}
	return heads, tails
}

// wordMask returns the word holding coordinate lo, the mask of the n
// coordinates of [lo, hi) that fall in it, and n.
func wordMask(lo, hi int) (w int, mask uint64, n int) {
	off := lo & 63
	n = min(64-off, hi-lo)
	return lo >> 6, ^uint64(0) >> uint(64-n) << uint(off), n
}
