package transport

import "trimgrad/internal/netsim"

// In-network aggregation support. When an aggregating switch folds two
// trim-aware data packets (netsim's AggregateTrimmable merge path), the
// transport must keep its reassembly accounting coherent: the merged
// packet stands in for several original sender packets, each tracked by a
// different (src, msgID) receiver. The queued packet's control header
// (netsim.ControlMerger) re-describes the aggregate as the concatenation of
// its inputs' entries, and the receive handler credits every entry while
// delivering the payload once.

// trimAggEntry identifies one original sender packet folded into an
// aggregate.
type trimAggEntry struct {
	Src   netsim.NodeID
	MsgID uint32
	Idx   int
	Total int
}

// trimAggData is the control header of a switch-built aggregate packet.
// A merge builds a new one and never writes its inputs' headers, which
// queued packets and sender retransmits may still share.
type trimAggData struct {
	Entries []trimAggEntry
}

// aggEntries appends a data packet's reassembly entries to dst, reporting
// false when the packet is not trim-aware data.
func aggEntries(dst []trimAggEntry, p *netsim.Packet) ([]trimAggEntry, bool) {
	switch c := p.Control.(type) {
	case *trimData:
		return append(dst, trimAggEntry{Src: p.Src, MsgID: c.MsgID, Idx: int(p.Seq), Total: c.Total}), true
	case *trimAggData:
		return append(dst, c.Entries...), true
	}
	return dst, false
}

// MergeControl implements netsim.ControlMerger for a queued data packet.
func (c *trimData) MergeControl(into, from *netsim.Packet) (any, bool) {
	return mergeEntries([]trimAggEntry{{Src: into.Src, MsgID: c.MsgID, Idx: int(into.Seq), Total: c.Total}}, from)
}

// MergeControl implements netsim.ControlMerger for a queued aggregate.
func (c *trimAggData) MergeControl(_, from *netsim.Packet) (any, bool) {
	return mergeEntries(append([]trimAggEntry(nil), c.Entries...), from)
}

// mergeEntries builds the aggregate's control header from the queued
// packet's entries and from's, or vetoes the merge when from is not
// trim-aware data or when the inputs share an original packet (a
// retransmit meeting its queued self, or two aggregates with a common
// ancestor — folding would double-count).
func mergeEntries(entries []trimAggEntry, from *netsim.Packet) (any, bool) {
	n := len(entries)
	entries, ok := aggEntries(entries, from)
	if !ok {
		return nil, false
	}
	for _, a := range entries[:n] {
		for _, b := range entries[n:] {
			if a.Src == b.Src && a.MsgID == b.MsgID && a.Idx == b.Idx {
				return nil, false
			}
		}
	}
	return &trimAggData{Entries: entries}, true
}

// handleTrimAgg accounts a switch-built aggregate to every folded sender's
// reassembly state and delivers the payload once. Duplicate rejection is
// all-or-nothing: if any entry was already accounted for, the whole
// aggregate is discarded — delivering it would double-count that sender —
// and the other senders' packets recover through the normal NACK path.
func (s *Stack) handleTrimAgg(p *netsim.Packet, c *trimAggData) {
	rxs := make([]*trimReceiver, len(c.Entries))
	for i, e := range c.Entries {
		rxs[i] = s.trimReceiverFor(e.Src, e.MsgID, 0, e.Total)
	}
	if !s.validPayload(p) {
		for _, rx := range rxs {
			rx.armNack()
		}
		return
	}
	for i, e := range c.Entries {
		if e.Idx < 0 || e.Idx >= len(rxs[i].dataGot) {
			return
		}
		if rxs[i].dataGot[e.Idx] {
			s.Stats.DupsReceived++
			return
		}
	}
	if p.Trimmed {
		s.Stats.TrimmedReceived++
	}
	for i, e := range c.Entries {
		rxs[i].dataGot[e.Idx] = true
		rxs[i].nDataGot++
	}
	s.deliver(p.Src, p.Payload)
	for _, rx := range rxs {
		rx.armNack()
		rx.maybeComplete()
	}
}
