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
	// the contract): the fabric shares them read-only with the sender. A
	// trim keeps a view of the prefix (cut), and the receiving host's
	// Handler reads that view: a trim writes nothing and is told by its
	// length (wire.Header.IsCut). Only a corruption fault copies the bytes.
	Payload []byte
	// FlowID tags the packet for flow-level statistics.
	FlowID uint64
	// Seq is a transport-assigned sequence number.
	Seq uint64
	// trimHead and trimQ are the payload's wire.TrimGeometry (head boundary,
	// tail bits), stamped wherever the fabric takes on a payload a port may
	// cut — Host.Send, a SendRun record's build, a corrupted clone, a merge
	// — so a trimming port decides by wire.TrimKeep without reading the
	// payload. trimHead 0 marks a payload no trim cuts: opaque, metadata,
	// not trimgrad's, or one Send left unread (high priority, no trimming
	// switch).
	trimHead uint32
	trimQ    uint8
	// _ keeps the record at 128 bytes: a 112-byte record allocates less
	// but runs the sharded permutation slower (packet_test.go's guard).
	_ [11]byte
	// Control carries transport-level header fields (ack numbers, message
	// ids). Switches never read it; an aggregating switch asks it for the
	// merged header when it implements ControlMerger.
	Control any

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

// clonePacket returns a copy of the record p from s's pool, sharing its
// Payload: payload bytes are immutable after Host.Send (DESIGN.md §16), so
// a fault's duplicate reads the sender's. On fault-injected paths
// (duplication, corruption) the copy outlives the original, so it is a
// record of its own: recycled at its own terminal point, and counted by
// Network.Audit. It keeps p's stamp, true of the shared bytes.
func (s *Sim) clonePacket(p *Packet) *Packet {
	c := s.NewPacket()
	home := c.home
	*c = *p
	c.home, c.next, c.run = home, nil, false
	return c
}

// stamp records the payload's trim geometry in the record, reading its
// header once.
func (p *Packet) stamp() {
	head, q, _ := wire.TrimGeometry(p.Payload)
	p.trimHead, p.trimQ = uint32(head), uint8(q)
}

// trimLen returns how many payload bytes a trim toward target total wire
// bytes (payload + NetOverhead) keeps, from the stamped geometry alone:
// wire.TrimLen of the payload, without reading it. len(Payload) means the
// switch cannot usefully trim the packet: it is opaque, a metadata packet,
// or already at its minimum size.
func (p *Packet) trimLen(target int) int {
	if p.trimHead == 0 {
		return len(p.Payload)
	}
	return wire.TrimKeep(len(p.Payload), target-wire.NetOverhead, int(p.trimHead), int(p.trimQ))
}

// cut trims the payload to its first keep bytes, a trimLen verdict below
// len(Payload), and updates Size and Prio.
//
// A cut writes nothing and copies nothing (DESIGN.md §16): the payload
// becomes a view of the kept prefix, capped there so no reader can append
// into the bytes behind it. Its header is left as the sender built it, so
// readers tell the trim by its length (wire.Header.IsCut).
func (p *Packet) cut(keep int) {
	p.Payload = p.Payload[:keep:keep]
	p.Size = keep + wire.NetOverhead
	p.Prio = PrioHigh
}
