// Package core assembles the paper's contribution end to end: it takes a
// gradient tensor, splits it into rows (2^15 coordinates by default,
// matching the paper's GPU-L1-sized rows), encodes each row with a
// trimmable quantization scheme from package quant, and packetizes it with
// package wire so that any switch along the path can compress the gradient
// just by trimming packets. On the receive side it decodes any mix of
// full, trimmed, and missing packets into the (approximate) gradient: packets
// are admitted one at a time as they arrive and decoded a row at a time, on
// all cores, when the gradient is asked for.
//
// The package also provides the congestion injectors used throughout the
// evaluation (probabilistic trimming/dropping, mirroring the paper's
// prototype methodology) and the trim transcript of §5.4 that makes a
// congested run exactly replayable.
package core

import (
	"fmt"
	"sync"

	"trimgrad/internal/fwht"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

// Config configures an Encoder/Decoder pair. Both ends of a connection
// must use identical Config values.
type Config struct {
	// Params selects the quantization scheme.
	Params quant.Params
	// RowSize is the per-row coordinate count; it must be a power of two.
	// Zero means fwht.DefaultRowSize (2^15, the paper's choice).
	RowSize int
	// Flow identifies the sender in packet headers.
	Flow uint32
}

func (c Config) withDefaults() Config {
	if c.RowSize == 0 {
		c.RowSize = fwht.DefaultRowSize
	}
	return c
}

// Message is one encoded collective-communication message: the trimmable
// data packets plus the reliable metadata packets, ready for transmission.
type Message struct {
	ID uint32
	// N is the original (pre-padding) gradient length in coordinates.
	N int
	// Meta holds one reliable metadata packet per row.
	Meta [][]byte
	// Data holds every trimmable data packet, in row-major order.
	Data [][]byte
}

// DataBytes returns the total untrimmed data-packet payload bytes.
func (m *Message) DataBytes() int {
	total := 0
	for _, p := range m.Data {
		total += len(p)
	}
	return total
}

// RowSeed derives the shared-randomness seed for one row, combining the
// epoch and message/row ids exactly as the paper combines the training
// epoch and collective-communication message ID into the GPU RNG seed.
func RowSeed(epoch uint64, message, row uint32) uint64 {
	return xrand.Seed(epoch, uint64(message), uint64(row))
}

// An Option configures an Encoder or Decoder at construction. The option
// set replaces passing a bare Config: NewEncoderWith(WithConfig(cfg),
// WithRegistry(r)) composes configuration with telemetry without widening
// the constructor signature again.
type Option func(*options)

type options struct {
	cfg Config
	reg *obs.Registry
	dec *decFamily
}

// WithConfig sets the whole codec configuration at once.
func WithConfig(cfg Config) Option { return func(o *options) { o.cfg = cfg } }

// WithRegistry attaches a telemetry registry: encoders report the
// "core.encode.*" counters, decoders flush their Stats into the
// "core.decode.*" counters and observe the packet-size histogram. Nil
// (the default) disables instrumentation. Decoders built with one returned
// Option share the handles the first of them resolved (DESIGN.md §9).
func WithRegistry(r *obs.Registry) Option {
	dec := &decFamily{reg: r}
	return func(o *options) { o.reg, o.dec = r, dec }
}

// Encoder turns gradient tensors into trimmable packet streams.
// Methods are safe for concurrent use.
type Encoder struct {
	cfg   Config
	codec quant.Codec
	// The "core.encode.*" counters, nil without a registry (no stats struct).
	rowsTotal, packetsTotal, bytesTotal *obs.Counter
}

// NewEncoderWith builds an encoder from options.
func NewEncoderWith(opts ...Option) (*Encoder, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	cfg := o.cfg.withDefaults()
	if cfg.RowSize&(cfg.RowSize-1) != 0 || cfg.RowSize <= 0 {
		return nil, fmt.Errorf("core: RowSize %d is not a power of two", cfg.RowSize)
	}
	codec, err := quant.New(cfg.Params)
	if err != nil {
		return nil, err
	}
	r := o.reg // resolving declares the family: an idle encoder exports zeros
	return &Encoder{cfg: cfg, codec: codec, rowsTotal: r.Counter("core.encode.rows_total"),
		packetsTotal: r.Counter("core.encode.packets_total"), bytesTotal: r.Counter("core.encode.bytes_total")}, nil
}

// Encode encodes grad as message msgID of the given epoch: EncodeParallel
// on the calling goroutine alone.
func (e *Encoder) Encode(epoch uint64, msgID uint32, grad []float32) (*Message, error) {
	return e.EncodeParallel(epoch, msgID, grad, 1)
}

// Stats summarizes what a Decoder saw for one message.
type Stats struct {
	// Packets counts data packets that arrived (trimmed or not).
	Packets int
	// TrimmedPackets counts arrived packets a switch cut (wire.Header.IsCut).
	TrimmedPackets int
	// ExpectedPackets is how many data packets the sender emitted.
	ExpectedPackets int
	// TrimmedCoords / TotalCoords give the coordinate-level trim fraction.
	TrimmedCoords int
	TotalCoords   int
	// DroppedCoords counts coordinates whose head never arrived.
	DroppedCoords int
	// BytesReceived counts data-packet bytes that arrived.
	BytesReceived int
	// RejectedPackets counts packets Handle refused: corrupt or foreign
	// headers, wrong message, or data arriving before its row metadata.
	// Distinguishing "trimmed" (expected under congestion) from
	// "rejected" (a bug or hostile traffic) is what lets congestion
	// experiments trust their error numbers.
	RejectedPackets int
}

// Accumulate folds o into s field by field. Collective workers use it to
// aggregate per-message decoder statistics across an operation.
func (s *Stats) Accumulate(o Stats) {
	s.Packets += o.Packets
	s.TrimmedPackets += o.TrimmedPackets
	s.ExpectedPackets += o.ExpectedPackets
	s.TrimmedCoords += o.TrimmedCoords
	s.TotalCoords += o.TotalCoords
	s.DroppedCoords += o.DroppedCoords
	s.BytesReceived += o.BytesReceived
	s.RejectedPackets += o.RejectedPackets
}

// TrimFraction returns the fraction of coordinates that lost their tails.
func (s Stats) TrimFraction() float64 {
	if s.TotalCoords == 0 {
		return 0
	}
	return float64(s.TrimmedCoords) / float64(s.TotalCoords)
}

// decCounters names the "core.decode.<name>_total" counters; counts lists
// a Stats in the same order.
var decCounters = [...]string{"packets", "trimmed_packets", "bytes", "rejected",
	"coords", "coords_trimmed", "coords_dropped", "expected_packets"}

func (s *Stats) counts() [len(decCounters)]int {
	return [...]int{s.Packets, s.TrimmedPackets, s.BytesReceived, s.RejectedPackets,
		s.TotalCoords, s.TrimmedCoords, s.DroppedCoords, s.ExpectedPackets}
}

// decFamily is a registry's "core.decode.*" family, shared by the decoders
// of one WithRegistry Option (too short-lived to be sources) and resolved,
// so declared, when the first is built: an idle decoder exports zeros.
type decFamily struct {
	once        sync.Once
	reg         *obs.Registry
	packetBytes *obs.Histogram
	counters    [len(decCounters)]*obs.Counter
}

// decObs returns a new decoder's view of the registry.
func (o *options) decObs() decObs {
	f := o.dec
	if f == nil || f.reg == nil {
		return decObs{}
	}
	f.once.Do(func() {
		f.packetBytes = f.reg.Histogram("core.decode.packet_bytes", obs.BucketsBytes())
		for i, name := range decCounters {
			f.counters[i] = f.reg.Counter("core.decode." + name + "_total")
		}
	})
	return decObs{fam: f, packetBytes: f.packetBytes}
}

// decObs is a decoder's view of the registry (fam is nil without one):
// Stats stays the only per-packet write, and flush pushes its gains to fam.
type decObs struct {
	fam         *decFamily
	packetBytes *obs.Histogram
	// emitted is what earlier flushes already pushed.
	emitted Stats
}

// flush adds cur − emitted to the registry, field by field. Reconstruct
// recomputes the coordinate-level fields from scratch, so a repeated call
// contributes only its delta. Every exit of Reconstruct/DecodeParallel and
// every Stats call flushes; a decoder dropped without any of them leaves
// its counts unexported.
func (o *decObs) flush(cur Stats) {
	if o.fam == nil {
		return
	}
	now, prev := cur.counts(), o.emitted.counts()
	for i, c := range o.fam.counters {
		c.Add(int64(now[i] - prev[i]))
	}
	o.emitted = cur
}

// arrived counts one accepted data packet or aggregate, standing for inputs
// original sender packets, in s.
func (o *decObs) arrived(s *Stats, pkt []byte, inputs int, trimmed bool) {
	s.Packets += inputs
	s.BytesReceived += len(pkt)
	o.packetBytes.Observe(int64(len(pkt)))
	if trimmed {
		s.TrimmedPackets += inputs
	}
}

// Decoder decodes one message's packet stream. Handle makes every accept or
// reject decision about a packet as it arrives — from its header and
// checksums, no bit unpacked — and parks a reference to each data packet that
// brings news in its row's arrival log; DecodeParallel replays the logs, a
// row per pool index, straight into the output. Nothing is reassembled.
// A Decoder instance handles a single message; create one per message.
type Decoder struct {
	geom  geometry
	msgID uint32
	rows  rowTable[decRow]
	stats Stats
	obs   decObs
}

// decRow is one row of a Decoder's message.
type decRow struct {
	nativeRow // n == 0 until the metadata arrives
	// dec decodes the row's packets at replay; the metadata's scale fixes it.
	dec *quant.NativeDecoder
	// seen is what has arrived so far, filled and tailed its head and tail
	// counts: admission's copy of what each replay rebuilds as it goes.
	seen           presence
	filled, tailed int
	// pending buffers data packets that arrive before the row's metadata
	// (reordering on the wire); they are admitted once the meta lands.
	pending []early
}

func newDecRow() *decRow { return new(decRow) }

// NewDecoderWith builds a decoder for message msgID from options. The
// configuration must match the sender's.
func NewDecoderWith(msgID uint32, opts ...Option) (*Decoder, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	cfg := o.cfg.withDefaults()
	if _, err := quant.New(cfg.Params); err != nil {
		return nil, err
	}
	return &Decoder{
		geom:  newGeometry(cfg),
		msgID: msgID,
		obs:   o.decObs(),
	}, nil
}

// Handle ingests one arrived packet (metadata or data, in any order).
// Packets belonging to other messages are rejected; every rejection is
// counted in Stats.RejectedPackets so silent corruption stays visible.
//
// An accepted data packet is referenced, not copied: pkt must stay
// unmodified until Release (or until the decoder is dropped) — the
// "immutable after Host.Send" rule, extended to the receiver. Several
// decoders may hold the same bytes.
func (d *Decoder) Handle(pkt []byte) error {
	if err := d.handle(pkt); err != nil {
		d.stats.RejectedPackets++
		return err
	}
	return nil
}

func (d *Decoder) handle(pkt []byte) error {
	h, err := wire.ParseHeader(pkt)
	if err != nil {
		return err
	}
	if h.Message != d.msgID {
		return fmt.Errorf("core: packet for message %d, decoder is for %d", h.Message, d.msgID)
	}
	if h.IsMeta() {
		m, err := wire.ParseMetaPacket(pkt)
		if err != nil {
			return err
		}
		return d.addMeta(m)
	}
	// A corrupt packet is rejected on arrival, never parked.
	_, tailCount, err := wire.CheckDataPacket(pkt)
	if err != nil {
		return err
	}
	row := d.rows.at(h.Row)
	if row == nil || row.n == 0 {
		// Reordered arrival: hold the packet until its metadata lands.
		if row, err = d.rows.ensure(h.Row, newDecRow); err != nil {
			return err
		}
		if len(row.pending) >= maxPendingPerRow {
			return fmt.Errorf("core: row %d pending buffer full", h.Row)
		}
		row.pending = append(row.pending, early{pkt, h, tailCount})
		return nil
	}
	return d.addData(row, pkt, &h, tailCount)
}

// addMeta admits a row's metadata, sets the row up to ingest — arrival log,
// presence, the native decoder its scale fixes — and admits the data packets
// that outran it. A duplicate delivery of the reliable channel is benign.
func (d *Decoder) addMeta(m *wire.MetaPacket) error {
	if err := d.geom.admitMeta(m); err != nil {
		return err
	}
	row, err := d.rows.ensure(m.Row, newDecRow)
	if err != nil {
		return err
	}
	if row.n > 0 {
		return nil
	}
	row.dec, err = quant.NewNativeDecoder(d.geom.scheme, d.geom.p, d.geom.q, m.Scale, m.Seed)
	if err != nil {
		return err
	}
	row.init(m.Seed, int(m.N), d.geom.packets(int(m.N)), 0)
	row.seen = newPresence(row.n)

	pending := row.pending
	row.pending = nil
	for _, e := range pending {
		// A packet that fails validation against the meta counts as
		// rejected, exactly as if it had arrived late.
		if err := d.addData(row, e.pkt, &e.h, e.tailCount); err != nil {
			d.stats.RejectedPackets++
		}
	}
	return nil
}

// addData admits a checked data packet against the configuration and its
// row, counts it, and parks it if it is news.
func (d *Decoder) addData(row *decRow, pkt []byte, h *wire.Header, tailCount int) error {
	if err := d.geom.admitData(h); err != nil {
		return err
	}
	if err := row.admit(h); err != nil {
		return err
	}
	// Presence is recorded only while the log has room: news that cannot be
	// parked is rejected whole, and a duplicate is benign even then.
	heads, tails := row.seen.arrive(int(h.Start), int(h.Count), tailCount, len(row.log) < row.limit, nil, nil)
	if heads+tails > 0 {
		fresh := heads == int(h.Count)
		if err := row.park(parked{pkt: pkt, start: h.Start, count: h.Count,
			tailCount: uint16(tailCount), fresh: fresh}); err != nil {
			return err
		}
		row.filled += heads
		row.tailed += tails
		row.overlaps = row.overlaps || !fresh
	}
	d.obs.arrived(&d.stats, pkt, 1, h.IsCut(len(pkt)))
	return nil
}

// Release drops the arrival logs — the decoder's references to the packets
// it was handed — and empties the decoder, for a caller that is done with
// it (Stats stay readable).
func (d *Decoder) Release() { d.rows = nil }

// Reconstruct decodes the gradient from whatever packets arrived. n is the
// original gradient length (known to the training framework, which sized
// the bucket). Rows whose metadata never arrived are decoded as zeros —
// metadata travels reliably, so in practice this only happens in
// drop-injection experiments. It is DecodeParallel on the calling
// goroutine alone.
func (d *Decoder) Reconstruct(n int) ([]float32, Stats, error) {
	return d.DecodeParallel(n, 1)
}

// Stats returns the decoder's packet statistics so far (and flushes them
// to the registry). Coordinate-level fields are only populated after
// Reconstruct.
func (d *Decoder) Stats() Stats {
	d.obs.flush(d.stats)
	return d.stats
}

// Receive is the receive half of the paper's prototype (§4): it builds a
// decoder for msg.ID from opts, hands it every metadata packet intact and
// every data packet through inj — nil passes everything, and a nil result
// from inj is a drop — and decodes the first n coordinates on the pool
// (DecodeParallel(n, 0)). An Injector writes no packet, so msg is left as
// encoded and may be received again.
func Receive(msg *Message, inj Injector, n int, opts ...Option) ([]float32, Stats, error) {
	dec, err := NewDecoderWith(msg.ID, opts...)
	if err != nil {
		return nil, Stats{}, err
	}
	for _, m := range msg.Meta {
		if err := dec.Handle(m); err != nil {
			return nil, Stats{}, err
		}
	}
	for _, d := range msg.Data {
		if inj != nil {
			if d = inj.Apply(d); d == nil {
				continue
			}
		}
		if err := dec.Handle(d); err != nil {
			return nil, Stats{}, err
		}
	}
	return dec.DecodeParallel(n, 0)
}
