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
// SumDecoder admits plain data packets from any flow (each decodes into
// the scheme's native domain via quant.NativeDecoder) as well as
// switch-built aggregate packets (wire.AggPacket, whose payload already
// carries native-domain sums) and parks them in arrival order, as Decoder
// does. Reconstruct adds each row's packets up in that order, straight into
// the output, applies the inverse rotation once per row and returns the SUM
// of the contributing gradients — the caller divides by the flow count.
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
}

// sumRow is one row's arrival log and the per-flow state its replay decodes
// with. Its geometry (seed and length) comes from the first metadata packet
// or, when an aggregate outruns every one of them, from the aggregate;
// n == 0 means neither has arrived.
type sumRow struct {
	nativeRow
	// metaSeen is false while the geometry was only adopted from an
	// aggregate: the row's true length, and with it how many packets each
	// sender emitted, is not known yet.
	metaSeen bool
	// decoders holds each flow's native decoder, built from the reliable
	// scale its metadata brought; a flow without one is still awaited.
	decoders map[uint32]*quant.NativeDecoder
	// pending buffers each flow's early data packets until that flow's
	// metadata lands (aggregates never wait: their values are pre-decoded).
	pending map[uint32][]early
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
		obs:    o.decObs(),
	}, nil
}

// Handle ingests one arrived packet — metadata, plain data, or aggregate,
// from any flow, in any order. Rejections are counted, and accepted packets
// referenced until Release, exactly as in Decoder.Handle.
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
	case h.IsMeta():
		m, err := wire.ParseMetaPacket(pkt)
		if err != nil {
			return err
		}
		return d.addMeta(m)
	case h.IsAgg():
		_, tailCount, err := wire.CheckAggPacket(pkt)
		if err != nil {
			return err
		}
		return d.addAgg(pkt, &h, tailCount)
	}
	_, tailCount, err := wire.CheckDataPacket(pkt)
	if err != nil {
		return err
	}
	row := d.rows.at(h.Row)
	if row == nil || row.decoders[h.Flow] == nil {
		// This flow's scale has not arrived yet: hold the packet until it does.
		if row, err = d.rows.ensure(h.Row, newSumRow); err != nil {
			return err
		}
		if len(row.pending[h.Flow]) >= maxPendingPerRow {
			return fmt.Errorf("core: row %d flow %d pending buffer full", h.Row, h.Flow)
		}
		row.pending[h.Flow] = append(row.pending[h.Flow], early{pkt, h, tailCount})
		return nil
	}
	return d.park(row, pkt, &h, tailCount, 1)
}

func newSumRow() *sumRow {
	return &sumRow{
		decoders: make(map[uint32]*quant.NativeDecoder),
		pending:  make(map[uint32][]early),
	}
}

// packets is how many packets the row's flows emit between them: what its
// log is sized for and, doubled, bounded by.
func (d *SumDecoder) packets(n int) int { return d.nFlows * d.geom.packets(n) }

// addMeta admits one flow's metadata — against the configuration, then
// against what the row's other flows (or an aggregate) already fixed: they
// all encode the same (epoch, message, row), so seed and length must agree
// — builds the flow's decoder from its scale and admits its early data
// packets.
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
		row.init(m.Seed, int(m.N), d.packets(int(m.N)), maxPendingPerRow)
	case m.Seed != row.seed || int(m.N) != row.n:
		return fmt.Errorf("core: row geometry mismatch (seed %x/%x length %d/%d)",
			m.Seed, row.seed, m.N, row.n)
	}
	row.metaSeen = true
	if row.decoders[m.Flow] != nil {
		return nil // reliable-channel duplicate, benign
	}
	nd, err := quant.NewNativeDecoder(d.geom.scheme, d.geom.p, d.geom.q, m.Scale, row.seed)
	if err != nil {
		return err
	}
	row.decoders[m.Flow] = nd
	pending := row.pending[m.Flow]
	delete(row.pending, m.Flow)
	for _, e := range pending {
		if err := d.park(row, e.pkt, &e.h, e.tailCount, 1); err != nil {
			d.stats.RejectedPackets++
		}
	}
	return nil
}

// addAgg admits one switch-built aggregate. Its values are already
// native-domain sums, so no metadata is needed; geometry comes from the
// aggregate's own key fields.
func (d *SumDecoder) addAgg(pkt []byte, h *wire.Header, tailCount int) error {
	row := d.rows.at(h.Row)
	if row == nil || row.n == 0 {
		// An aggregate can outrun every metadata packet; adopt its seed and
		// the longest length a row may have, and let later metas cross-check
		// both.
		if int(h.Start)+int(h.Count) > d.geom.rowSize {
			return fmt.Errorf("core: aggregate range [%d,%d) outside RowSize %d",
				h.Start, int(h.Start)+int(h.Count), d.geom.rowSize)
		}
		var err error
		if row, err = d.rows.ensure(h.Row, newSumRow); err != nil {
			return err
		}
		row.init(h.Seed, d.geom.rowSize, d.packets(d.geom.rowSize), maxPendingPerRow)
	}
	return d.park(row, pkt, h, tailCount, int(h.Flow))
}

// park admits a checked packet standing for inputs sender packets (an
// aggregate's Flow field; 1 for plain data, whose widths must be the
// configuration's) to its row's log and counts it.
func (d *SumDecoder) park(row *sumRow, pkt []byte, h *wire.Header, tailCount, inputs int) error {
	if !h.IsAgg() {
		if err := d.geom.admitData(h); err != nil {
			return err
		}
	}
	if err := row.admit(h); err != nil {
		return err
	}
	if err := row.park(parked{pkt: pkt, start: h.Start, flow: h.Flow, count: h.Count,
		tailCount: uint16(tailCount), agg: h.IsAgg()}); err != nil {
		return err
	}
	d.headContribs += inputs * int(h.Count)
	d.tailContribs += inputs * tailCount
	d.obs.arrived(&d.stats, pkt, inputs, h.IsCut(len(pkt)))
	return nil
}

// Reconstruct returns the coordinate-wise SUM of every contributing
// flow's gradient (the caller divides by the flow count). n is the
// original gradient length. Rows that received nothing decode as zeros.
// Like Decoder.DecodeParallel it replays and finalizes the rows on the par
// crew — the result is the same bits however they are scheduled — and may
// be called again.
func (d *SumDecoder) Reconstruct(n int) ([]float32, Stats, error) { return d.reconstruct(n, 0) }

// reconstruct is Reconstruct on up to workers executors (≤ 0: the crew's size).
func (d *SumDecoder) reconstruct(n, workers int) ([]float32, Stats, error) {
	if n <= 0 {
		return nil, d.stats, errors.New("core: non-positive gradient length")
	}
	defer func() { d.obs.flush(d.stats) }()
	rowSize := d.geom.rowSize
	errs := make([]error, (n+rowSize-1)/rowSize)
	out := d.geom.decodeRows(len(errs), workers, func(s *replayScratch, r int, dst []float32) {
		if row := d.rows.at(uint32(r)); row != nil && row.n > 0 {
			errs[r] = row.replay(&d.geom, s, dst, nil, row.decoders)
		}
	})
	d.stats.TotalCoords = d.nFlows * len(out)
	d.stats.TrimmedCoords = d.headContribs - d.tailContribs
	d.stats.DroppedCoords = d.stats.TotalCoords - d.headContribs
	d.stats.ExpectedPackets = 0
	for r, err := range errs {
		if row := d.rows.at(uint32(r)); row != nil && row.metaSeen {
			d.stats.ExpectedPackets += d.packets(row.n)
		}
		if err != nil {
			return nil, d.stats, fmt.Errorf("core: row %d: %w", r, err)
		}
	}
	return out[:n], d.stats, nil
}

// Release drops the arrival logs and empties the decoder, exactly as
// Decoder.Release does.
func (d *SumDecoder) Release() { d.rows = nil }

// Stats returns the decoder's packet statistics so far (and flushes them
// to the registry). Coordinate-level fields are only populated after
// Reconstruct.
func (d *SumDecoder) Stats() Stats {
	d.obs.flush(d.stats)
	return d.stats
}
