package wire

import (
	"errors"
	"fmt"

	"trimgrad/internal/quant"
)

// PackRow splits an encoded row into MTU-sized trimmable data packets plus
// the single reliable metadata packet carrying the decoding scale. Packets
// carry consecutive coordinate ranges; the k-th data packet starts at
// coordinate k·CoordsPerPacket(P, Q).
func PackRow(flow, message, rowID uint32, enc *quant.EncodedRow) (meta []byte, data [][]byte, err error) {
	if err := enc.Validate(); err != nil {
		return nil, nil, err
	}
	base := Header{
		Flow:    flow,
		Message: message,
		Row:     rowID,
		P:       uint8(enc.P),
		Q:       uint8(enc.Q),
		Seed:    enc.Seed,
	}
	meta = BuildMetaPacket(base, uint8(enc.Scheme), uint32(enc.N), enc.Scale)

	per := CoordsPerPacket(enc.P, enc.Q)
	data = make([][]byte, 0, (enc.N+per-1)/per)
	for start := 0; start < enc.N; start += per {
		end := start + per
		if end > enc.N {
			end = enc.N
		}
		h := base
		h.Start = uint32(start)
		h.Count = uint16(end - start)
		pkt, err := BuildDataPacket(h, enc.Heads[start:end], enc.Tails[start:end])
		if err != nil {
			return nil, nil, err
		}
		data = append(data, pkt)
	}
	return meta, data, nil
}

// RowAssembler reassembles one row from its metadata packet and whatever
// data packets arrive — full, trimmed, or missing entirely. The zero value
// is not useful; use NewRowAssembler.
type RowAssembler struct {
	haveMeta  bool
	scheme    quant.Scheme
	n         int
	p, q      int
	seed      uint64
	scale     float64
	heads     []uint32
	tails     []uint32
	headAvail []bool
	tailAvail []bool
	filled    int // coordinates whose head has arrived
	tailed    int // coordinates whose tail has arrived too
	received  int // data packets accepted so far
}

// NewRowAssembler returns an empty assembler for one (flow, message, row).
func NewRowAssembler() *RowAssembler { return &RowAssembler{} }

// AddMeta records the reliable metadata packet. It must be called before
// Assemble; packets may arrive in any order relative to it.
func (a *RowAssembler) AddMeta(m *MetaPacket) error {
	if m == nil {
		return errors.New("wire: nil metadata packet")
	}
	if a.haveMeta {
		return nil // duplicate delivery of the reliable channel is benign
	}
	a.haveMeta = true
	a.scheme = quant.Scheme(m.Scheme)
	a.n = int(m.N)
	a.p = int(m.P)
	a.q = int(m.Q)
	a.seed = m.Seed
	a.scale = m.Scale
	a.heads = make([]uint32, a.n)
	a.tails = make([]uint32, a.n)
	a.headAvail = make([]bool, a.n)
	a.tailAvail = make([]bool, a.n)
	return nil
}

// AddData merges one parsed data packet into the row. Duplicate and
// overlapping deliveries are idempotent; packets for coordinates beyond
// the row length are rejected.
func (a *RowAssembler) AddData(p *DataPacket) error {
	if !a.haveMeta {
		return errors.New("wire: data before metadata")
	}
	if int(p.P) != a.p || int(p.Q) != a.q {
		return fmt.Errorf("wire: packet P/Q %d/%d != row %d/%d", p.P, p.Q, a.p, a.q)
	}
	if p.Seed != a.seed {
		return fmt.Errorf("wire: packet seed %x != row seed %x", p.Seed, a.seed)
	}
	start, count := int(p.Start), int(p.Count)
	if start+count > a.n {
		return fmt.Errorf("wire: packet range [%d,%d) outside row of %d", start, start+count, a.n)
	}
	tailCount := min(p.TailCount, count)
	copy(a.heads[start:], p.Heads[:count])
	copy(a.tails[start:], p.Tails[:tailCount])
	for i, have := range a.headAvail[start : start+count] {
		if !have {
			a.headAvail[start+i] = true
			a.filled++
		}
	}
	for i, have := range a.tailAvail[start : start+tailCount] {
		if !have {
			a.tailAvail[start+i] = true
			a.tailed++
		}
	}
	a.received++
	return nil
}

// HaveMeta reports whether the metadata packet has arrived.
func (a *RowAssembler) HaveMeta() bool { return a.haveMeta }

// Received returns the number of data packets merged so far.
func (a *RowAssembler) Received() int { return a.received }

// ExpectedPackets returns how many data packets the sender emitted for this
// row (derivable from the reliable metadata alone).
func (a *RowAssembler) ExpectedPackets() int {
	if !a.haveMeta || a.n == 0 {
		return 0
	}
	per := CoordsPerPacket(a.p, a.q)
	return (a.n + per - 1) / per
}

// Filled returns how many coordinates have their head and how many of
// those their tail as well: of a row of n, heads−tails were trimmed and
// n−heads never arrived.
func (a *RowAssembler) Filled() (heads, tails int) { return a.filled, a.tailed }

// Complete reports whether every coordinate's head has arrived (tails may
// still be missing — that is what trimming means).
func (a *RowAssembler) Complete() bool { return a.haveMeta && a.filled == a.n }

// Assemble produces the reconstructed EncodedRow along with the
// per-coordinate availability masks for quant.Codec.Decode. It may be
// called at any time after the metadata arrives; missing packets simply
// leave their coordinates unavailable.
func (a *RowAssembler) Assemble() (*quant.EncodedRow, []bool, []bool, error) {
	if !a.haveMeta {
		return nil, nil, nil, errors.New("wire: assemble without metadata")
	}
	enc := &quant.EncodedRow{
		Scheme: a.scheme,
		P:      a.p,
		Q:      a.q,
		N:      a.n,
		Seed:   a.seed,
		Scale:  a.scale,
		Heads:  a.heads,
		Tails:  a.tails,
	}
	return enc, a.headAvail, a.tailAvail, nil
}
