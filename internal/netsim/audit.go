package netsim

import (
	"fmt"
	"slices"
)

// Audit checks five invariants of the fabric's state and returns the
// first violation, or nil. Call it between runs — after Run or a RunUntil
// slice returns — never from inside an event. It reads only state the
// fabric keeps anyway, so the per-packet path carries no bookkeeping for
// it:
//
//   - Pool balance. The pooled records NewPacket allocated, summed over
//     every simulator the network runs on, less the records in the free
//     lists and cross-shard return bins, are exactly the distinct records
//     the fabric holds: in port queues, in pending events and in
//     cross-shard outboxes. A packet on the wire is already in its
//     arrival event. A record leaked on a drop, or handed out and never
//     sent, breaks it.
//   - List hygiene. Every port FIFO, free list and return bin links
//     exactly its count of records (walked no further, so a cut or looped
//     list is reported, not followed). No record is free twice or both
//     free and held: a record released twice, while queued, or before a
//     send is caught here. Every held record came from a pool: a literal
//     handed to Port.Enqueue is reported.
//   - Port conservation. Every port has Enqueued == Transmitted + Backlog().
//   - No lookups in a run. No simulator's registry resolved an instrument
//     by name while the simulator ran (obs.Registry.BeginRun).
//   - Monotone time. No simulator fired an event before its own clock: a
//     virtual serialization end caught up too late schedules its arrival
//     in the past. The first such event is reported by kind and port.
//
// Nodes are walked in ID order, so the violation reported is the same on
// every run.
func (n *Network) Audit() error {
	var bad error
	fail := func(format string, args ...any) {
		if bad == nil {
			bad = fmt.Errorf("netsim: audit: "+format, args...)
		}
	}
	if n.auditHeld == nil {
		n.auditHeld, n.auditFree = make(map[*Packet]bool), make(map[*Packet]bool)
	}
	held, free := n.auditHeld, n.auditFree
	clear(held)
	clear(free)
	hold := func(pkt *Packet, where string, at ...any) {
		switch {
		case pkt == nil:
		case pkt.home == nil:
			fail(where+" holds a record no pool made", at...)
		case held[pkt]:
			fail(where+" holds a pooled packet held elsewhere too", at...)
		default:
			held[pkt] = true
		}
	}

	ids := make([]NodeID, 0, len(n.nodes))
	//trimlint:allow determinism ids are sorted below; map order never reaches a report
	for id := range n.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		var ports []*Port
		switch nd := n.nodes[id].(type) {
		case *Switch:
			ports = nd.Ports()
		case *Host:
			if nd.uplink != nil {
				ports = []*Port{nd.uplink}
			}
		}
		for _, p := range ports {
			st := p.stats()
			if b := p.Backlog(); st.Enqueued != st.Transmitted+b {
				fail("port %d->%d enqueued %d packets, transmitted %d, holds %d",
					p.owner, p.peer.ID(), st.Enqueued, st.Transmitted, b)
			}
			for prio := range p.q {
				if !p.q[prio].walk(func(pkt *Packet) { hold(pkt, "port %d->%d", p.owner, p.peer.ID()) }) {
					fail("port %d->%d priority %d FIFO does not link its %d packets", p.owner, p.peer.ID(), prio, p.q[prio].n)
				}
			}
		}
	}

	sims := []*Sim{n.Sim}
	if e := n.Sim.eng; e != nil {
		sims = sims[:0]
		for _, sh := range e.shards {
			sims = append(sims, sh.sim)
		}
	}
	made := 0
	for _, s := range sims {
		if k := s.obs.RunLookups(); k > 0 {
			fail("%d registry lookups inside a run; resolve instrument handles at construction", k)
		}
		if b := s.back; s.backNow > 0 {
			what := evKindName[b.kind] + " event"
			if b.port != nil {
				what += fmt.Sprintf(" of port %d->%d", b.port.owner, b.port.peer.ID())
			}
			fail("a %s fired at %v, before the clock's %v: virtual time stepped back", what, b.at, s.backNow)
		}
		made += s.pktMade
		s.eachPending(func(ev *event) { hold(ev.pkt, "a pending event") })
		for _, set := range s.out {
			for _, box := range set {
				for _, m := range box {
					hold(m.pkt, "an outbox")
				}
			}
		}
	}
	idle := func(pkt *Packet) {
		switch {
		case free[pkt]:
			fail("a pooled packet is free twice")
		case held[pkt]:
			fail("a pooled packet is free and held by the fabric")
		}
		free[pkt] = true
	}
	for _, s := range sims {
		if !s.freePkt.walk(idle) {
			fail("a free list does not link its %d records", s.freePkt.n)
		}
		for set := range s.retPkt {
			for i := range s.retPkt[set] {
				if !s.retPkt[set][i].walk(idle) {
					fail("a return bin does not link its %d records", s.retPkt[set][i].n)
				}
			}
		}
	}
	if live := made - len(free); live != len(held) {
		fail("%d pooled packets live, %d held by queues, events and outboxes", live, len(held))
	}
	return bad
}

// eachPending calls fn on every pending event: the rest of the current
// tick, the late heap, the wheel's slot chains and the overflow heap.
func (s *Sim) eachPending(fn func(*event)) {
	for _, e := range s.run[s.ri:] {
		fn(e.ev)
	}
	for _, e := range s.late {
		fn(e.ev)
	}
	for _, ev := range s.slots {
		for ; ev != nil; ev = ev.next {
			fn(ev)
		}
	}
	for _, e := range s.overflow {
		fn(e.ev)
	}
}
