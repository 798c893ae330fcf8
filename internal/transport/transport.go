// Package transport implements the two endpoint protocols the paper
// contrasts:
//
//   - Reliable — the conventional *ccl-style transport: every packet must
//     arrive intact, losses are detected by timeout and repaired by
//     retransmission, and an AIMD window grows per ack and halves per
//     timeout. This is the baseline whose retransmission stalls create
//     the stragglers of §1.
//
//   - TrimAware — the trimmable-gradients transport: data packets are
//     blasted at line rate (trimming, not dropping, is the congestion
//     response), a trimmed packet is *accepted as final* with no
//     retransmission, and only the tiny metadata packets and rare
//     full drops are repaired via a receiver-driven NACK.
//
// Both run over the netsim fabric. One Stack is attached per host and
// demultiplexes by message; the application (package collective) registers
// a Receiver to consume delivered payloads.
package transport

import (
	"errors"
	"fmt"

	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/wire"
)

// ErrRetriesExhausted is the error a sender's failed callback receives
// when a message burns through its MaxRetries retransmission budget —
// the bounded-retry analogue of an NCCL communicator timeout.
var ErrRetriesExhausted = errors.New("transport: retransmit budget exhausted")

// Config tunes the protocols.
type Config struct {
	// RTO is the initial retransmission timeout. Senders back off
	// exponentially from it on consecutive timeouts, up to 16×RTO.
	RTO netsim.Time
	// MaxRetries bounds per-message retransmission rounds before the
	// message errors out (the paper's NCCL "timeout errors" under loss).
	MaxRetries int
}

func (c Config) withDefaults() Config {
	if c.RTO == 0 {
		c.RTO = 500 * netsim.Microsecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 50
	}
	return c
}

// initWindow and maxWindow are the reliable sender's initial and largest
// congestion windows in packets.
const (
	initWindow = 12
	maxWindow  = 256
)

// maxBackoff caps the exponential backoff at this multiple of the
// configured RTO.
const maxBackoff = 16

// backoff doubles rto, capped at maxBackoff×RTO.
func (c Config) backoff(rto netsim.Time) netsim.Time {
	return min(2*rto, maxBackoff*c.RTO)
}

// ackSize is the wire size of control packets (acks, nacks, done).
const ackSize = 64

// Receiver consumes the payloads of delivered data/metadata packets.
type Receiver interface {
	// HandlePayload is called once per delivered packet with the (possibly
	// trimmed) trimgrad wire bytes. They are often the sender's own bytes —
	// a trim is a view of its prefix, told by its length (wire.Header.IsCut)
	// — so a receiver may keep payload but must never write it.
	HandlePayload(src netsim.NodeID, payload []byte)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(src netsim.NodeID, payload []byte)

// HandlePayload implements Receiver.
func (f ReceiverFunc) HandlePayload(src netsim.NodeID, payload []byte) { f(src, payload) }

// Stats counts transport-level events on one stack.
type Stats struct {
	DataSent        int
	DataDelivered   int
	TrimmedReceived int
	Retransmits     int
	Timeouts        int
	AcksSent        int
	NacksSent       int
	Failures        int // messages that exhausted MaxRetries
	// RejectedPackets counts received payloads that failed their wire
	// CRCs or header checks (bit corruption on the wire). They are
	// dropped unacked and recovered through the normal loss path.
	RejectedPackets int
	// DupsReceived counts data/metadata packets that arrived again after
	// already being accounted for; they are re-acked but never
	// re-delivered to the application.
	DupsReceived int
}

// Stack is the per-host transport endpoint. Create one per host with New;
// it takes over the host's packet handler.
type Stack struct {
	host *netsim.Host
	sim  *netsim.Sim
	cfg  Config
	// cwnd has no Stats twin, so it is a registry instrument (scaled ×1000
	// since gauges are integers; nil, a free no-op, without a registry).
	cwnd *obs.Gauge

	// Receiver consumes delivered payloads; may be nil.
	Receiver Receiver
	// OnMessageComplete fires at the receiver when a message's packets
	// have all been accounted for (reliable: all intact; trim-aware: all
	// heads present).
	OnMessageComplete func(src netsim.NodeID, msgID uint32, at netsim.Time)

	Stats Stats

	relTx  map[msgKey]*relSender
	relRx  map[msgKey]*relReceiver
	trimTx map[msgKey]*trimSender
	trimRx map[msgKey]*trimReceiver
}

// emit reports the counts under the stack's "transport.h<id>." prefix.
// Stats is the only place transport events are recorded; the registry
// calls this when it is snapshotted.
func (s *Stats) emit(e obs.Emit, prefix string) {
	e.Counter(prefix+"data_sent_total", s.DataSent)
	e.Counter(prefix+"data_delivered_total", s.DataDelivered)
	e.Counter(prefix+"trimmed_received_total", s.TrimmedReceived)
	e.Counter(prefix+"retransmits_total", s.Retransmits)
	e.Counter(prefix+"timeouts_total", s.Timeouts)
	e.Counter(prefix+"acks_sent_total", s.AcksSent)
	e.Counter(prefix+"nacks_sent_total", s.NacksSent)
	e.Counter(prefix+"failures_total", s.Failures)
	e.Counter(prefix+"rejected_packets_total", s.RejectedPackets)
	e.Counter(prefix+"dups_received_total", s.DupsReceived)
}

type msgKey struct {
	peer netsim.NodeID
	id   uint32
}

// An Opt configures a Stack at construction.
type Opt func(*stackOpts)

type stackOpts struct {
	cfg Config
	rcv Receiver
}

// WithConfig sets the protocol configuration (zero fields take defaults).
func WithConfig(cfg Config) Opt { return func(o *stackOpts) { o.cfg = cfg } }

// WithReceiver sets the payload consumer at construction time.
func WithReceiver(rcv Receiver) Opt { return func(o *stackOpts) { o.rcv = rcv } }

// New attaches a transport stack to h, configured by options. The stack
// reports into the registry bound to the host's simulator (none: off). No
// option combination fails today; the error return is part of the
// constructor contract every caller already handles.
func New(h *netsim.Host, opts ...Opt) (*Stack, error) {
	var o stackOpts
	for _, opt := range opts {
		opt(&o)
	}
	s := &Stack{
		host:     h,
		sim:      h.Sim(),
		cfg:      o.cfg.withDefaults(),
		Receiver: o.rcv,
		relTx:    make(map[msgKey]*relSender),
		relRx:    make(map[msgKey]*relReceiver),
		trimTx:   make(map[msgKey]*trimSender),
		trimRx:   make(map[msgKey]*trimReceiver),
	}
	if reg := h.Sim().Obs(); reg != nil {
		prefix := fmt.Sprintf("transport.h%d.", h.ID())
		s.cwnd = reg.Gauge(prefix + "cwnd_x1000")
		reg.AddSource(func(e obs.Emit) { s.Stats.emit(e, prefix) })
	}
	h.Handler = s.handle
	return s, nil
}

// Host returns the underlying simulated host.
func (s *Stack) Host() *netsim.Host { return s.host }

func (s *Stack) handle(p *netsim.Packet) {
	switch c := p.Control.(type) {
	case *relData:
		s.handleRelData(p, c)
	case *relAck:
		s.handleRelAck(p, c)
	case *trimData:
		s.handleTrimData(p, c)
	case *trimAggData:
		s.handleTrimAgg(p, c)
	case *trimMeta:
		s.handleTrimMeta(p, c)
	case *trimMetaAck:
		s.handleTrimMetaAck(p, c)
	case *trimDone:
		s.handleTrimDone(p, c)
	case trimNack:
		s.handleTrimNack(p, c)
	default:
		// Opaque cross traffic: ignore.
	}
}

func (s *Stack) deliver(src netsim.NodeID, payload []byte) {
	if s.Receiver != nil {
		s.Receiver.HandlePayload(src, payload)
	}
	s.Stats.DataDelivered++
}

// payloadSize is the wire size of a packet carrying payload.
func payloadSize(payload []byte) int { return len(payload) + wire.NetOverhead }

// mustBeTrimgrad refuses, at hand-over, a message carrying anything but
// trimgrad packets: receivers admit payloads on the packets' own wire CRCs
// (validPayload), which foreign bytes do not have.
func mustBeTrimgrad(id uint32, payloads [][]byte) {
	for i, b := range payloads {
		if !wire.IsTrimgrad(b) {
			panic(fmt.Sprintf("transport: message %d payload %d is not a trimgrad packet", id, i))
		}
	}
}

// validPayload reports whether a received payload may be acked and
// delivered, judged by the packet's own wire CRCs in one pass, without
// unpacking a coordinate. A packet the fabric did not trim must be a
// trimgrad packet exactly as built (wire.ValidateUntrimmed: every CRC, not
// cut by flag or length). A trimmed one must pass wire.Validate, which
// checks the CRCs its trim state leaves; if its magic was hit after the
// cut it is handed on as foreign bytes, and the decoder refuses them.
// Failures are counted in Stats.RejectedPackets and dropped unacked so a
// flipped bit becomes a recoverable loss, never a delivered bad gradient.
func (s *Stack) validPayload(p *netsim.Packet) bool {
	var err error
	switch {
	case !p.Trimmed:
		err = wire.ValidateUntrimmed(p.Payload)
	case wire.IsTrimgrad(p.Payload):
		err = wire.Validate(p.Payload)
	}
	if err != nil {
		s.Stats.RejectedPackets++
		return false
	}
	return true
}
