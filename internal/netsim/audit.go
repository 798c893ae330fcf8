package netsim

import (
	"fmt"
	"slices"
)

// Audit checks three invariants of the fabric's state and returns the
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
//   - Free-list hygiene. No record is free twice, and no free record is
//     also held. A record released twice, or released and then sent, is
//     caught here.
//   - Port conservation. Every port has Enqueued == Transmitted + Backlog().
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
	held := make(map[*Packet]bool)
	hold := func(pkt *Packet, where string, at ...any) {
		switch {
		case pkt == nil || !pkt.pooled:
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
			for _, q := range &p.q {
				for _, pkt := range q.queued() {
					hold(pkt, "port %d->%d", p.owner, p.peer.ID())
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
		made += s.pktMade
		s.eachPending(func(ev *event) { hold(ev.pkt, "a pending event") })
		for _, box := range s.out {
			for _, m := range box {
				hold(m.pkt, "an outbox")
			}
		}
	}
	free := make(map[*Packet]bool)
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
		for _, pkt := range s.freePkt {
			idle(pkt)
		}
		for _, bin := range s.retPkt {
			for _, pkt := range bin {
				idle(pkt)
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
