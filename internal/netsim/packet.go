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
// Every record comes from Sim.NewPacket, and the fabric recycles it at its
// terminal point (Host.Send panics on a record its host's Sim did not make).
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
	// _ keeps the record at 128 bytes: a 112-byte record allocates less
	// but runs the sharded permutation slower (packet_test.go's guard).
	_ [16]byte
	// Control carries transport-level header fields (ack numbers, message
	// ids). Switches never read it; an aggregating switch asks it for the
	// merged header when it implements ControlMerger.
	Control any
	// Trimmed is set by a switch that trimmed this packet.
	Trimmed bool
	// ECE carries an ECN congestion-experienced mark.
	ECE bool

	// ownsPayload marks Payload as this packet's private buffer — made by
	// a trim, a fault's clone, or an aggregation merge inside the fabric, referenced
	// by nobody else — so a further trim may rewrite it in place.
	ownsPayload bool

	// run marks a queued Host.SendRun's place in a NIC FIFO (runQueue).
	run bool
	// home is the Sim whose pool allocated this record. On a sharded
	// simulator a packet released on a foreign shard is returned to its
	// home pool at the next barrier (see Sim.releasePacket), keeping the
	// per-shard pools in steady state under one-directional traffic.
	home *Sim
	// next links the record into the one list holding it (pktQueue).
	next *Packet
}

// clonePacket returns a copy of p, with its own Payload buffer, from s's
// pool. On fault-injected paths (duplication, corruption) the copy outlives
// the original, so it is a record of its own: recycled at its own terminal
// point, and counted by Network.Audit.
func (s *Sim) clonePacket(p *Packet) *Packet {
	c := s.NewPacket()
	home := c.home
	*c = *p
	c.home, c.next, c.run = home, nil, false
	if p.Payload != nil {
		c.Payload = append([]byte(nil), p.Payload...)
		c.ownsPayload = true
	}
	return c
}

// trimLen returns how many payload bytes a trim toward target total wire
// bytes (payload + NetOverhead) keeps, parsing the header once. len(Payload)
// means the switch cannot usefully trim the packet: it is opaque, a
// metadata packet, or already at its minimum size.
func (p *Packet) trimLen(target int) int {
	return wire.TrimLen(p.Payload, target-wire.NetOverhead)
}

// cut trims the payload to its first keep bytes, a trimLen verdict below
// len(Payload), and updates Size, Trimmed, and Prio.
//
// Trimming is the one place the fabric changes payload bytes, and it never
// writes a buffer it does not own (DESIGN.md §16): a payload still shared
// with its sender is trimmed into a private copy of the kept prefix only,
// leaving the sender's retransmit buffer intact and, on a sharded fabric,
// never racing a sender-side read. A payload the packet already owns is
// cut in place.
func (p *Packet) cut(keep int) {
	out := p.Payload[:keep]
	if !p.ownsPayload {
		out = make([]byte, keep)
		copy(out, p.Payload)
	}
	wire.MarkTrimmed(out)
	p.Payload = out
	p.ownsPayload = true
	p.Size = keep + wire.NetOverhead
	p.Trimmed = true
	p.Prio = PrioHigh
}

// TrimTo trims the payload toward target total wire bytes and reports
// whether any bytes were actually removed.
func (p *Packet) TrimTo(target int) bool {
	keep := p.trimLen(target)
	if keep >= len(p.Payload) {
		return false
	}
	p.cut(keep)
	return true
}
