package core

import (
	"errors"
	"fmt"

	"trimgrad/internal/par"
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
	geom   geometry
	msgID  uint32
	nFlows int
	rows   rowTable[sumRow]
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

// sumRow is one row's native-domain accumulator and the per-flow state
// that feeds it. Its geometry (seed and length) comes from the first
// metadata packet or, when an aggregate outruns every one of them, from
// the aggregate; n == 0 means neither has arrived.
type sumRow struct {
	nativeRow
	// metaSeen is false while the geometry was only adopted from an
	// aggregate: the row's true length, and with it how many packets each
	// sender emitted, is not known yet.
	metaSeen bool
	scales   map[uint32]float64 // flow → reliable scale
	// decoders caches each flow's native decoder, built from its scale on
	// the flow's first data packet.
	decoders map[uint32]*quant.NativeDecoder
	// pending buffers each flow's early data packets until that flow's
	// metadata lands (aggregates never wait: their values are pre-decoded).
	pending map[uint32][][]byte
}

// NewSumDecoder builds a summing decoder for message msgID fed by nFlows
// senders. The configuration must match the senders'; every metadata
// packet is admitted against it, and against the row's other flows.
func NewSumDecoder(msgID uint32, nFlows int, opts ...Option) (*SumDecoder, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	cfg := o.cfg.withDefaults()
	if nFlows < 1 {
		return nil, fmt.Errorf("core: SumDecoder needs at least one flow, got %d", nFlows)
	}
	// Validate Params eagerly (same gate as Decoder): a bad scheme should
	// fail at build time.
	if _, err := quant.New(cfg.Params); err != nil {
		return nil, err
	}
	return &SumDecoder{
		geom:   newGeometry(cfg),
		msgID:  msgID,
		nFlows: nFlows,
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
	switch {
	case h.IsNaive():
		return errors.New("core: naive packets cannot be summed")
	case h.IsMeta():
		m, err := wire.ParseMetaPacket(pkt)
		if err != nil {
			return err
		}
		return d.addMeta(m)
	case h.IsAgg():
		ap, err := wire.ParseAggPacket(pkt)
		if err != nil {
			return err
		}
		return d.addAgg(pkt, ap)
	}
	row := d.rows.at(h.Row)
	if row == nil || !row.hasScale(h.Flow) {
		// This flow's scale has not arrived yet: verify the packet now,
		// buffer it, and unpack it once at replay.
		if _, _, err := wire.CheckDataPacket(pkt); err != nil {
			return err
		}
		if row, err = d.rows.ensure(h.Row, newSumRow); err != nil {
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

func newSumRow() *sumRow {
	return &sumRow{
		scales:   make(map[uint32]float64),
		decoders: make(map[uint32]*quant.NativeDecoder),
		pending:  make(map[uint32][][]byte),
	}
}

func (row *sumRow) hasScale(flow uint32) bool {
	_, ok := row.scales[flow]
	return ok
}

// addMeta admits one flow's metadata — against the configuration, then
// against what the row's other flows (or an aggregate) already fixed: they
// all encode the same (epoch, message, row), so seed and length must agree
// — records the flow's scale and replays its early data packets.
func (d *SumDecoder) addMeta(m *wire.MetaPacket) error {
	if err := d.geom.admitMeta(m); err != nil {
		return err
	}
	row, err := d.rows.ensure(m.Row, newSumRow)
	if err != nil {
		return err
	}
	switch {
	case row.n == 0:
		row.init(m.Seed, int(m.N))
	case m.Seed != row.seed || int(m.N) != row.n:
		return fmt.Errorf("core: row geometry mismatch (seed %x/%x length %d/%d)",
			m.Seed, row.seed, m.N, row.n)
	}
	row.metaSeen = true
	if row.hasScale(m.Flow) {
		return nil // reliable-channel duplicate, benign
	}
	row.scales[m.Flow] = m.Scale
	pkts := row.pending[m.Flow]
	delete(row.pending, m.Flow)
	for _, pkt := range pkts {
		if err := d.addData(row, pkt); err != nil {
			d.stats.RejectedPackets++
		}
	}
	return nil
}

// addData verifies one plain data packet of a flow whose scale is known,
// unpacks it into the decoder's scratch, decodes it and adds it to its
// slice of the row's accumulator.
func (d *SumDecoder) addData(row *sumRow, pkt []byte) error {
	dp := &d.dp
	if err := dp.Unpack(pkt); err != nil {
		return err
	}
	if err := d.geom.admitData(&dp.Header); err != nil {
		return err
	}
	dst, err := row.admit(&dp.Header)
	if err != nil {
		return err
	}
	nd := row.decoders[dp.Flow]
	if nd == nil {
		nd, err = quant.NewNativeDecoder(d.geom.scheme, d.geom.p, d.geom.q, row.scales[dp.Flow], row.seed)
		if err != nil {
			return err
		}
		row.decoders[dp.Flow] = nd
	}
	if cap(d.vals) < len(dst) {
		d.vals = make([]float32, len(dst))
	}
	vals := d.vals[:len(dst)]
	if err := nd.PacketValues(vals, int(dp.Start), dp.Heads, dp.Tails, dp.TailCount); err != nil {
		return err
	}
	for i, v := range vals {
		dst[i] += v
	}
	d.headContribs += len(dst)
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
// aggregate's own key fields.
func (d *SumDecoder) addAgg(pkt []byte, ap *wire.AggPacket) error {
	row := d.rows.at(ap.Row)
	if row == nil || row.n == 0 {
		// An aggregate can outrun every metadata packet; adopt its seed and
		// the longest length a row may have, and let later metas cross-check
		// both.
		if int(ap.Start)+int(ap.Count) > d.geom.rowSize {
			return fmt.Errorf("core: aggregate range [%d,%d) outside RowSize %d",
				ap.Start, int(ap.Start)+int(ap.Count), d.geom.rowSize)
		}
		var err error
		if row, err = d.rows.ensure(ap.Row, newSumRow); err != nil {
			return err
		}
		row.init(ap.Seed, d.geom.rowSize)
	}
	dst, err := row.admit(&ap.Header)
	if err != nil {
		return err
	}
	for i, v := range ap.TailSums[:ap.TailCount] {
		dst[i] += v
	}
	for i := ap.TailCount; i < len(dst); i++ {
		dst[i] += ap.Sums[i]
	}
	k := ap.Inputs()
	d.headContribs += k * len(dst)
	d.tailContribs += k * ap.TailCount
	d.stats.Packets += k
	d.stats.BytesReceived += len(pkt)
	d.obs.packetBytes.Observe(int64(len(pkt)))
	if ap.Trimmed() {
		d.stats.TrimmedPackets += k
	}
	return nil
}

// Reconstruct returns the coordinate-wise SUM of every contributing
// flow's gradient (the caller divides by the flow count). n is the
// original gradient length. Rows that received nothing decode as zeros.
// Like Decoder.DecodeParallel it finalizes the rows on the par pool — the
// result is the same bits however they are scheduled — and may be called
// again.
func (d *SumDecoder) Reconstruct(n int) ([]float32, Stats, error) {
	if n <= 0 {
		return nil, d.stats, errors.New("core: non-positive gradient length")
	}
	defer func() { d.obs.flush(d.stats) }()
	rowSize := d.geom.rowSize
	nRows := (n + rowSize - 1) / rowSize
	out := make([]float32, nRows*rowSize)
	errs := make([]error, nRows)
	par.Default.ForEach(nRows, 0, func(r int) {
		if row := d.rows.at(uint32(r)); row != nil && row.n > 0 {
			errs[r] = row.finalizeInto(out[r*rowSize:], d.geom.scheme)
		}
	})
	d.stats.TotalCoords = d.nFlows * nRows * rowSize
	d.stats.TrimmedCoords = d.headContribs - d.tailContribs
	d.stats.DroppedCoords = d.stats.TotalCoords - d.headContribs
	d.stats.ExpectedPackets = 0
	for r, err := range errs {
		if row := d.rows.at(uint32(r)); row != nil && row.metaSeen {
			d.stats.ExpectedPackets += d.nFlows * d.geom.packets(row.n)
		}
		if err != nil {
			return nil, d.stats, fmt.Errorf("core: row %d: %w", r, err)
		}
	}
	return out[:n], d.stats, nil
}

// Release hands the rows' accumulators back to the scratch pool and empties
// the decoder; optional, exactly as Decoder.Release is.
func (d *SumDecoder) Release() {
	for _, row := range d.rows {
		if row != nil {
			row.release()
		}
	}
	d.rows = nil
}

// Stats returns the decoder's packet statistics so far (and flushes them
// to the registry). Coordinate-level fields are only populated after
// Reconstruct.
func (d *SumDecoder) Stats() Stats {
	d.obs.flush(d.stats)
	return d.stats
}
