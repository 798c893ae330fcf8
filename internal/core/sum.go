package core

import (
	"errors"
	"fmt"

	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
)

// SumDecoder reassembles one message's packet streams from *many* flows
// into their coordinate-wise native-domain sum — the receive side of
// SwitchML-style in-network aggregation and of the parameter-server
// collective. Unlike Decoder, which decodes one sender's message, a
// SumDecoder accepts plain data packets from any flow (decoding each into
// the scheme's native domain via quant.NativeDecoder) as well as
// switch-built aggregate packets (wire.AggPacket, whose payload already
// carries native-domain sums) and folds them all into one accumulator per
// row. Reconstruct then applies the inverse rotation once per row and
// returns the SUM of the contributing gradients — the caller divides by
// the flow count.
//
// This works because the per-row shared-randomness seed has no flow
// component (RowSeed mixes epoch, message, and row only): every flow's
// same row rotates and dithers identically, so native-domain values are
// additive across flows, whether a switch summed them in flight or the
// packets arrived individually.
//
// Stats semantics: Packets/TrimmedPackets/BytesReceived count per
// *original sender packet*, so an aggregate folding k inputs counts k
// (its byte size is counted once — the aggregate is what crossed the last
// hop). TotalCoords is nFlows × the message's padded coordinate count;
// TrimmedCoords counts contributions whose tail was lost, DroppedCoords
// contributions that never arrived at all.
type SumDecoder struct {
	cfg    Config
	msgID  uint32
	nFlows int
	rows   map[uint32]*sumRow
	stats  Stats
	obs    decObs
	// contribution accounting across all rows (in original-packet units).
	headContribs int // coordinates that arrived (any precision) × inputs
	tailContribs int // coordinates that arrived at full precision × inputs
	// Per-packet scratch, reused so a plain data packet folds in without
	// allocating: dp receives the unpacked heads/tails, vals their decode.
	dp   wire.DataPacket
	vals []float32
}

// sumRow is one row's native-domain accumulator.
type sumRow struct {
	haveGeom bool
	scheme   quant.Scheme
	p, q     int
	seed     uint64
	n        int
	scales   map[uint32]float64 // flow → reliable scale
	// decoders caches each flow's native decoder, built from its scale on
	// the flow's first data packet.
	decoders map[uint32]*quant.NativeDecoder
	native   []float32
	// pending buffers each flow's early data packets until that flow's
	// metadata lands (aggregates never wait: their values are pre-decoded).
	pending map[uint32][][]byte
}

// NewSumDecoder builds a summing decoder for message msgID fed by nFlows
// senders. The configuration must match the senders'; the per-row scheme
// geometry is cross-checked against the metadata packets as they arrive.
func NewSumDecoder(msgID uint32, nFlows int, opts ...Option) (*SumDecoder, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	cfg := o.cfg.withDefaults()
	if nFlows < 1 {
		return nil, fmt.Errorf("core: SumDecoder needs at least one flow, got %d", nFlows)
	}
	// Validate Params eagerly (same gate as Decoder) even though decoding
	// runs through NativeDecoder: a bad scheme should fail at build time.
	if _, err := quant.New(cfg.Params); err != nil {
		return nil, err
	}
	return &SumDecoder{
		cfg:    cfg,
		msgID:  msgID,
		nFlows: nFlows,
		rows:   make(map[uint32]*sumRow),
		obs:    newDecObs(o.reg),
	}, nil
}

// Handle ingests one arrived packet — metadata, plain data, or aggregate,
// from any flow, in any order. Rejections are counted exactly as in
// Decoder.Handle.
func (d *SumDecoder) Handle(pkt []byte) error {
	if err := d.handle(pkt); err != nil {
		d.stats.RejectedPackets++
		return err
	}
	return nil
}

func (d *SumDecoder) handle(pkt []byte) error {
	h, err := wire.ParseHeader(pkt)
	if err != nil {
		return err
	}
	if h.Message != d.msgID {
		return fmt.Errorf("core: packet for message %d, sum decoder is for %d", h.Message, d.msgID)
	}
	if h.IsNaive() {
		return errors.New("core: naive packets cannot be summed")
	}
	row := d.rows[h.Row]
	if row == nil {
		row = &sumRow{
			scales:   make(map[uint32]float64),
			decoders: make(map[uint32]*quant.NativeDecoder),
			pending:  make(map[uint32][][]byte),
		}
		d.rows[h.Row] = row
	}
	switch {
	case h.IsMeta():
		m, err := wire.ParseMetaPacket(pkt)
		if err != nil {
			return err
		}
		return d.addMeta(row, m)
	case h.IsAgg():
		ap, err := wire.ParseAggPacket(pkt)
		if err != nil {
			return err
		}
		return d.addAgg(row, pkt, ap)
	default:
		if _, ok := row.scales[h.Flow]; !ok {
			// This flow's scale has not arrived yet: verify the packet now,
			// buffer it, and unpack it once at replay.
			if _, _, err := wire.CheckDataPacket(pkt); err != nil {
				return err
			}
			if len(row.pending[h.Flow]) >= maxPendingPerRow {
				return fmt.Errorf("core: row %d flow %d pending buffer full", h.Row, h.Flow)
			}
			row.pending[h.Flow] = append(row.pending[h.Flow], pkt)
			return nil
		}
		return d.addData(row, pkt)
	}
}

// ensureGeom records (or cross-checks) a row's shared geometry. Every
// flow's metadata must agree on scheme, P, Q, seed, and length — they
// encode the same (epoch, message, row) under the same Config.
func (d *SumDecoder) ensureGeom(row *sumRow, scheme quant.Scheme, p, q int, seed uint64, n int) error {
	if !row.haveGeom {
		if scheme != d.cfg.Params.Scheme {
			return fmt.Errorf("core: metadata scheme %v != configured %v", scheme, d.cfg.Params.Scheme)
		}
		if n <= 0 || n > d.cfg.RowSize {
			return fmt.Errorf("core: row length %d outside (0,%d]", n, d.cfg.RowSize)
		}
		row.haveGeom = true
		row.scheme, row.p, row.q, row.seed, row.n = scheme, p, q, seed, n
		row.native = make([]float32, n)
		return nil
	}
	if !row.geomKnown() {
		// Geometry was adopted from an aggregate (packet shape unknown):
		// cross-check the shared fields and fill in P/Q from the meta.
		if scheme != row.scheme || seed != row.seed || n != row.n {
			return fmt.Errorf("core: metadata disagrees with aggregate geometry (row seed %x/%x)",
				seed, row.seed)
		}
		row.p, row.q = p, q
		return nil
	}
	if scheme != row.scheme || p != row.p || q != row.q || seed != row.seed || n != row.n {
		return fmt.Errorf("core: row geometry mismatch (scheme %v/%v P %d/%d Q %d/%d)",
			scheme, row.scheme, p, row.p, q, row.q)
	}
	return nil
}

func (d *SumDecoder) addMeta(row *sumRow, m *wire.MetaPacket) error {
	if err := d.ensureGeom(row, quant.Scheme(m.Scheme), int(m.P), int(m.Q), m.Seed, int(m.N)); err != nil {
		return err
	}
	if _, dup := row.scales[m.Flow]; dup {
		return nil // reliable-channel duplicate, benign (mirrors RowAssembler)
	}
	row.scales[m.Flow] = m.Scale
	// Replay this flow's buffered early data packets.
	pkts := row.pending[m.Flow]
	if len(pkts) == 0 {
		return nil
	}
	delete(row.pending, m.Flow)
	for _, pkt := range pkts {
		if err := d.addData(row, pkt); err != nil {
			d.stats.RejectedPackets++
		}
	}
	return nil
}

// addData verifies one plain data packet, unpacks it into the decoder's
// scratch and folds it into the row's native accumulator.
func (d *SumDecoder) addData(row *sumRow, pkt []byte) error {
	dp := &d.dp
	if err := dp.Unpack(pkt); err != nil {
		return err
	}
	if !row.haveGeom {
		return errors.New("core: data before metadata")
	}
	if int(dp.P) != row.p || int(dp.Q) != row.q || dp.Seed != row.seed {
		return fmt.Errorf("core: packet P/Q/seed mismatch for row %d", dp.Row)
	}
	start, count := int(dp.Start), int(dp.Count)
	if start < 0 || start+count > row.n {
		return fmt.Errorf("core: packet range [%d,%d) outside row of %d", start, start+count, row.n)
	}
	nd := row.decoders[dp.Flow]
	if nd == nil {
		var err error
		nd, err = quant.NewNativeDecoder(row.scheme, row.p, row.q, row.scales[dp.Flow], row.seed)
		if err != nil {
			return err
		}
		row.decoders[dp.Flow] = nd
	}
	if cap(d.vals) < count {
		d.vals = make([]float32, count)
	}
	vals := d.vals[:count]
	if err := nd.PacketValues(vals, start, dp.Heads, dp.Tails, dp.TailCount); err != nil {
		return err
	}
	for i, v := range vals {
		row.native[start+i] += v
	}
	d.headContribs += count
	d.tailContribs += dp.TailCount
	d.stats.Packets++
	d.stats.BytesReceived += len(pkt)
	d.obs.packetBytes.Observe(int64(len(pkt)))
	if dp.Trimmed() {
		d.stats.TrimmedPackets++
	}
	return nil
}

// addAgg folds one switch-built aggregate. Its values are already
// native-domain sums, so no metadata is needed; geometry comes from the
// aggregate's own key fields (the scheme from the decoder Config, since
// aggregates do not record it).
func (d *SumDecoder) addAgg(row *sumRow, pkt []byte, ap *wire.AggPacket) error {
	if !row.haveGeom {
		// An aggregate can outrun every metadata packet; adopt its key
		// geometry with the configured scheme's packet shape unknown (P/Q
		// of the original packets are gone). Record what we can and let
		// later metas cross-check seed and length.
		if int(ap.Start)+int(ap.Count) > d.cfg.RowSize {
			return fmt.Errorf("core: aggregate range [%d,%d) outside RowSize %d",
				ap.Start, int(ap.Start)+int(ap.Count), d.cfg.RowSize)
		}
		row.haveGeom = true
		row.scheme = d.cfg.Params.Scheme
		row.p, row.q = -1, -1 // unknown until a meta arrives
		row.seed = ap.Seed
		row.n = d.cfg.RowSize
		row.native = make([]float32, row.n)
	}
	if ap.Seed != row.seed {
		return fmt.Errorf("core: aggregate seed %x != row seed %x", ap.Seed, row.seed)
	}
	start, count := int(ap.Start), int(ap.Count)
	if start < 0 || start+count > row.n {
		return fmt.Errorf("core: aggregate range [%d,%d) outside row of %d", start, start+count, row.n)
	}
	for i := 0; i < count; i++ {
		if i < ap.TailCount {
			row.native[start+i] += ap.TailSums[i]
		} else {
			row.native[start+i] += ap.Sums[i]
		}
	}
	k := ap.Inputs()
	d.headContribs += k * count
	d.tailContribs += k * ap.TailCount
	d.stats.Packets += k
	d.stats.BytesReceived += len(pkt)
	d.obs.packetBytes.Observe(int64(len(pkt)))
	if ap.Trimmed() {
		d.stats.TrimmedPackets += k
	}
	return nil
}

// geomKnown reports whether the row's packet shape (P/Q) is known — false
// while the geometry was only adopted from an aggregate, which does not
// record the original packets' bit widths.
func (row *sumRow) geomKnown() bool { return row.haveGeom && row.p >= 0 }

// Reconstruct returns the coordinate-wise SUM of every contributing
// flow's gradient (the caller divides by the flow count). n is the
// original gradient length. Rows that received nothing decode as zeros.
func (d *SumDecoder) Reconstruct(n int) ([]float32, Stats, error) {
	if n <= 0 {
		return nil, d.stats, errors.New("core: non-positive gradient length")
	}
	defer func() { d.obs.flush(d.stats) }()
	rowSize := d.cfg.RowSize
	nRows := (n + rowSize - 1) / rowSize
	out := make([]float32, nRows*rowSize)
	d.stats.TotalCoords = d.nFlows * nRows * rowSize
	d.stats.TrimmedCoords = d.headContribs - d.tailContribs
	d.stats.DroppedCoords = d.stats.TotalCoords - d.headContribs
	d.stats.ExpectedPackets = 0
	for r := 0; r < nRows; r++ {
		row := d.rows[uint32(r)]
		if row == nil || !row.haveGeom {
			continue // out is already zero
		}
		if row.geomKnown() {
			per := wire.CoordsPerPacket(row.p, row.q)
			d.stats.ExpectedPackets += d.nFlows * ((row.n + per - 1) / per)
		}
		// Finalize in the row's slice of the output, not in the accumulator,
		// so Reconstruct stays repeatable.
		dec := out[r*rowSize:][:row.n]
		copy(dec, row.native)
		if err := quant.FinalizeNative(row.scheme, row.seed, dec); err != nil {
			return nil, d.stats, fmt.Errorf("core: row %d: %w", r, err)
		}
	}
	return out[:n], d.stats, nil
}

// Stats returns the decoder's packet statistics so far (and flushes them
// to the registry). Coordinate-level fields are only populated after
// Reconstruct.
func (d *SumDecoder) Stats() Stats {
	d.obs.flush(d.stats)
	return d.stats
}
