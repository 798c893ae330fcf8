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

// noMeta is the lookup used when no metadata cache is wired (ports used
// directly in tests): only aggregate×aggregate merges can succeed.
func noMeta(flow, msg, row uint32) (wire.MetaInfo, bool) { return wire.MetaInfo{}, false }

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
	metaOf := p.metaOf
	if metaOf == nil {
		metaOf = noMeta
	}
	for _, prio := range []Priority{PrioHigh, PrioNormal} {
		for _, qpkt := range p.q[prio].queued() {
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
			// list at this layer; the transport's control merger vetoes
			// duplicates among them, since it knows every folded sender.)
			if !qh.IsAgg() && !h.IsAgg() && qh.Flow == h.Flow {
				continue
			}
			if p.mergeInto(qpkt, prio, pkt, metaOf) {
				return true
			}
		}
	}
	return false
}

// mergeInto folds pkt into the queued qpkt (resident in queue prio),
// reporting success. The queued packet is the earlier arrival, so its
// values accumulate first — float addition order stays deterministic.
func (p *Port) mergeInto(qpkt *Packet, prio Priority, pkt *Packet,
	metaOf func(flow, msg, row uint32) (wire.MetaInfo, bool)) bool {
	merged, err := wire.MergeTrimmable(qpkt.Payload, pkt.Payload, metaOf)
	if err != nil {
		return false
	}
	// The transport must be able to re-describe the merged packet (its
	// control header lists every folded sender for reassembly accounting).
	// Without a registered merger only control-free packets may merge.
	var ctl any
	if p.sim.controlMerger != nil {
		c, ok := p.sim.controlMerger(qpkt, pkt)
		if !ok {
			return false
		}
		ctl = c
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
	qpkt.ownsPayload = true
	qpkt.Size += delta
	qpkt.Control = ctl
	qpkt.Trimmed = mh.Trimmed()
	qpkt.ECE = qpkt.ECE || pkt.ECE
	p.bytes[prio] += delta
	p.Stats.Aggregated++

	// A jumbo merge can push the queue past capacity; under TrimOverflow
	// the aggregate is trimmed back toward the target like any other
	// overflow. (It is never dropped: it already carries another sender's
	// data.) Note TrimTo promotes Prio for the *next* hop; the byte
	// accounting here stays against the queue the packet resides in.
	capBytes := p.cfg.CapacityBytes
	if prio == PrioHigh {
		capBytes = p.cfg.HighCapacityBytes
	}
	if p.bytes[prio] > capBytes && p.cfg.Mode == TrimOverflow {
		before := qpkt.Size
		if qpkt.TrimTo(p.cfg.TrimTarget) {
			p.bytes[prio] -= before - qpkt.Size
			p.Stats.Trimmed++
		}
	}
	if depth := p.QueuedBytes(); depth > p.Stats.MaxQueueBytes {
		p.Stats.MaxQueueBytes = depth
	}
	p.queueDepth.Observe(int64(p.QueuedBytes()))
	return true
}
