package netsim

import (
	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
)

// In-network aggregation (SwitchML-style, composed with packet trimming —
// DESIGN.md §13). A switch whose QueueConfig enables AggregateTrimmable
// folds gradient packets together at its output queues: when an arriving
// trimmable data (or aggregate) packet finds a queued packet for the same
// destination carrying the same aggregation key (message, row, start,
// count, seed), the two are replaced by a single wire aggregate whose
// payload holds native-domain sums. The merged survivor prefix is the
// intersection of the inputs' prefixes, so trimming an aggregate after the
// fact is byte-identical to aggregating already-trimmed inputs — the
// commutativity the equivalence tests pin.
//
// Plain data packets can only be decoded into the native domain with their
// row's reliable side information (scheme + scale), which travels in the
// metadata packets. The switch snoops those as they pass through
// (Switch.Deliver) into a small bounded cache; until a flow's metadata has
// been seen, its data packets forward unmerged.

// aggMetaKey identifies one (flow, message, row)'s snooped metadata.
type aggMetaKey struct {
	flow, msg, row uint32
}

// aggMetaCacheMax bounds the snooped-metadata cache. Real switch SRAM is
// scarce; when the cache fills, it is reset wholesale (deterministic, and
// the only cost is that in-flight rows stop merging until their metadata
// passes by again on a retransmission).
const aggMetaCacheMax = 4096

// snoopMeta records the scheme and scale of a metadata packet traversing
// an aggregating switch, keyed by (flow, message, row).
func (s *Switch) snoopMeta(pkt *Packet) {
	if pkt.Payload == nil || !wire.IsTrimgrad(pkt.Payload) {
		return
	}
	h, err := wire.ParseHeader(pkt.Payload)
	if err != nil || !h.IsMeta() {
		return
	}
	m, err := wire.ParseMetaPacket(pkt.Payload)
	if err != nil {
		return
	}
	if s.metaCache == nil || len(s.metaCache) >= aggMetaCacheMax {
		s.metaCache = make(map[aggMetaKey]wire.MetaInfo, 64)
	}
	s.metaCache[aggMetaKey{h.Flow, h.Message, h.Row}] = wire.MetaInfo{
		Scheme: quant.Scheme(m.Scheme),
		Scale:  m.Scale,
	}
}

// metaInfo is the lookup the merge path hands to wire.MergeTrimmable.
func (s *Switch) metaInfo(flow, msg, row uint32) (wire.MetaInfo, bool) {
	m, ok := s.metaCache[aggMetaKey{flow, msg, row}]
	return m, ok
}

// ControlMerger is implemented by a transport control header that can
// describe an aggregate (QueueConfig.AggregateTrimmable). Before folding
// pkt into the queued packet into, the switch asks into's Control for the
// merged packet's header — typically both inputs' reassembly entries — and
// ok=false vetoes the merge (the inputs share a sender packet, so folding
// would double-count). Packets whose queued Control is not a ControlMerger
// merge only when neither carries a Control.
type ControlMerger interface {
	MergeControl(into, from *Packet) (ctl any, ok bool)
}

// tryAggregate attempts to fold pkt into a queued packet with the same
// destination and aggregation key. On success the queued packet has been
// rewritten in place as the merged aggregate and pkt's bytes live on
// inside it; the caller owns pkt throughout and must release (not
// enqueue) it. Any failure — no candidate, missing snooped metadata,
// transport veto — leaves both packets untouched and the caller admits
// pkt normally.
func (p *Port) tryAggregate(pkt *Packet) bool {
	if pkt.Payload == nil || !wire.IsTrimgrad(pkt.Payload) {
		return false
	}
	h, err := wire.ParseHeader(pkt.Payload)
	if err != nil || h.IsMeta() {
		return false
	}
	for _, prio := range []Priority{PrioHigh, PrioNormal} {
		q := &p.q[prio]
		for qpkt, i := q.head, 0; i < q.n; qpkt, i = qpkt.next, i+1 {
			if qpkt.Dst != pkt.Dst || qpkt.Payload == nil || !wire.IsTrimgrad(qpkt.Payload) {
				continue
			}
			qh, err := wire.ParseHeader(qpkt.Payload)
			if err != nil || qh.IsMeta() {
				continue
			}
			if qh.Message != h.Message || qh.Row != h.Row || qh.Start != h.Start ||
				qh.Count != h.Count || qh.Seed != h.Seed {
				continue
			}
			// A retransmit can meet its still-queued original: same flow,
			// same key. Folding would double-count that sender, so plain
			// same-flow pairs never merge. (Aggregate inputs carry no flow
			// list at this layer; the transport's ControlMerger vetoes
			// duplicates among them, since it knows every folded sender.)
			if !qh.IsAgg() && !h.IsAgg() && qh.Flow == h.Flow {
				continue
			}
			if p.mergeInto(qpkt, prio, pkt) {
				return true
			}
		}
	}
	return false
}

// mergeInto folds pkt into the queued qpkt (resident in queue prio),
// reporting success. The queued packet is the earlier arrival, so its
// values accumulate first — float addition order stays deterministic.
func (p *Port) mergeInto(qpkt *Packet, prio Priority, pkt *Packet) bool {
	// A cut view needs no copy here: MergeTrimmable finds its surviving
	// tails by length, and the merge builds a new buffer.
	merged, err := wire.MergeTrimmable(qpkt.Payload, pkt.Payload, p.metaOf)
	if err != nil {
		return false
	}
	// The transport must be able to re-describe the merged packet (its
	// control header lists every folded sender for reassembly accounting).
	var ctl any
	if m, ok := qpkt.Control.(ControlMerger); ok {
		if ctl, ok = m.MergeControl(qpkt, pkt); !ok {
			return false
		}
	} else if qpkt.Control != nil || pkt.Control != nil {
		return false
	}
	mh, err := wire.ParseHeader(merged)
	if err != nil {
		return false
	}

	// Commit: rewrite the queued packet in place. Aggregates may exceed the
	// original sizes (jumbo frames — part of the placement trade-off the
	// aggregation sweep measures), so the byte accounting takes the delta.
	// The merged buffer is freshly allocated: a merge never writes an
	// operand's payload.
	delta := len(merged) - len(qpkt.Payload)
	qpkt.Payload = merged
	qpkt.stamp()
	qpkt.Size += delta
	qpkt.Control = ctl
	qpkt.Trimmed = mh.Trimmed()
	p.bytes[prio] += delta
	p.Stats.Aggregated++

	// A jumbo merge can push the queue past capacity; under TrimOverflow
	// the aggregate is trimmed back toward the target like any other
	// overflow. (It is never dropped: it already carries another sender's
	// data.) Note trimTo promotes Prio for the *next* hop; the byte
	// accounting here stays against the queue the packet resides in.
	capBytes := p.cfg.CapacityBytes
	if prio == PrioHigh {
		capBytes = p.cfg.HighCapacityBytes
	}
	if p.bytes[prio] > capBytes && p.cfg.Mode == TrimOverflow {
		before := qpkt.Size
		if qpkt.trimTo(p.cfg.TrimTarget) {
			p.bytes[prio] -= before - qpkt.Size
			p.Stats.Trimmed++
		}
	}
	if depth := p.queued(); depth > p.Stats.MaxQueueBytes {
		p.Stats.MaxQueueBytes = depth
	}
	p.queueDepth.Observe(int64(p.queued()))
	return true
}
