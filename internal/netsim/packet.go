package netsim

import "trimgrad/internal/wire"

// NodeID identifies a host or switch in the network.
type NodeID int

// Priority selects the switch queue a packet travels in. Trimmed headers
// and control packets ride the high-priority queue so congestion signals
// overtake the payload backlog, as in NDP.
type Priority uint8

const (
	// PrioNormal is the default payload priority.
	PrioNormal Priority = iota
	// PrioHigh is used for trimmed headers, acks, and metadata.
	PrioHigh
)

// Packet is one simulated datagram. Size is the on-wire byte count
// including network overhead; Payload optionally carries real trimgrad
// wire-format bytes that switches know how to trim. Packets without a
// Payload (cross traffic, acks) are opaque: they can only be dropped.
type Packet struct {
	Src, Dst NodeID
	Size     int
	Prio     Priority
	// Payload holds trimgrad wire bytes; nil for opaque traffic. The bytes
	// are immutable once the packet is handed to Host.Send (which states
	// the contract): the fabric shares them read-only with the sender, and
	// a trim copies the kept prefix instead of writing them (TrimTo).
	Payload []byte
	// FlowID tags the packet for flow-level statistics.
	FlowID uint64
	// Seq is a transport-assigned sequence number.
	Seq uint64
	// Kind is a free-form label for transports ("data", "ack", ...).
	Kind string
	// Control carries transport-level header fields (ack numbers, message
	// ids). Simulated switches never inspect it.
	Control any
	// Trimmed is set by a switch that trimmed this packet.
	Trimmed bool
	// ECE carries an ECN congestion-experienced mark.
	ECE bool

	// ownsPayload marks Payload as this packet's private buffer — made by
	// a trim, Clone, or an aggregation merge inside the fabric, referenced
	// by nobody else — so a further trim may rewrite it in place.
	ownsPayload bool

	// pooled marks a record obtained from Sim.NewPacket. The fabric
	// recycles pooled records at their terminal point (host delivery or
	// drop); plain &Packet{} literals stay unpooled and are left to the
	// GC, so callers that retain packets keep their aliasing freedom.
	pooled bool
	// home is the Sim whose pool allocated this record. On a sharded
	// simulator a packet released on a foreign shard is returned to its
	// home pool at the next barrier (see Sim.releasePacket), keeping the
	// per-shard pools in steady state under one-directional traffic.
	home *Sim
}

// Clone returns a shallow copy with its own Payload slice. The clone is
// never pooled: it outlives the original on fault-injected paths
// (duplication, corruption), so it must not be recycled with it.
func (p *Packet) Clone() *Packet {
	q := *p
	q.pooled = false
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
		q.ownsPayload = true
	}
	return &q
}

// Trimmable reports whether the switch can usefully trim this packet:
// it must carry a trimgrad payload that is not a metadata packet and not
// already at its minimum size.
func (p *Packet) Trimmable() bool {
	if p.Payload == nil {
		return false
	}
	h, err := wire.ParseHeader(p.Payload)
	if err != nil || h.IsMeta() {
		return false
	}
	return len(p.Payload) > h.TrimmedSize()
}

// TrimTo trims the payload toward target total wire bytes (payload +
// NetOverhead) and updates Size, Trimmed, and Prio. It reports whether any
// bytes were actually removed.
//
// Trimming is the one place the fabric changes payload bytes, and it never
// writes a buffer it does not own (DESIGN.md §16): a payload still shared
// with its sender is trimmed into a private copy of the kept prefix only,
// leaving the sender's retransmit buffer intact and, on a sharded fabric,
// never racing a sender-side read. A payload the packet already owns is
// cut in place.
func (p *Packet) TrimTo(target int) bool {
	if p.Payload == nil {
		return false
	}
	want := target - wire.NetOverhead
	var trimmed []byte
	if p.ownsPayload {
		trimmed = wire.Trim(p.Payload, want)
	} else {
		trimmed = wire.TrimCopy(p.Payload, want)
	}
	if len(trimmed) >= len(p.Payload) {
		return false
	}
	p.Payload = trimmed
	p.ownsPayload = true
	p.Size = len(trimmed) + wire.NetOverhead
	p.Trimmed = true
	p.Prio = PrioHigh
	return true
}
