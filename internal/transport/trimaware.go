package transport

import "trimgrad/internal/netsim"

// The trim-aware protocol of the paper: metadata packets travel a tiny
// reliable side channel (high priority, ack + RTO), while data packets are
// sent once at line rate. A switch under congestion trims data packets
// instead of dropping them; the receiver accepts a trimmed packet as final
// — the gradient has simply been compressed in-network — so there are no
// retransmission stalls. Only packets lost *entirely* (rare: the trimmed
// header itself overflowed the high-priority queue) are recovered by a
// receiver-driven NACK, NDP-style.

// Every control header but trimNack's is built once per message — a
// data packet's index rides in Packet.Seq, metadata and its acks take
// theirs from a per-message table — and, like payloads, headers are
// written before Host.Send and never after (DESIGN.md §16).

// trimData is the control header of a message's data packets, shared by
// all of them.
type trimData struct {
	MsgID uint32
	Total int
}

// trimMeta carries one reliable metadata payload.
type trimMeta struct {
	MsgID uint32
	Idx   int
	Total int
}

// trimMetaAck acknowledges one metadata packet.
type trimMetaAck struct {
	MsgID uint32
	Idx   int
}

// trimDone tells the sender the receiver has accounted for every packet.
type trimDone struct {
	MsgID uint32
}

// trimNack lists data packets whose heads never arrived.
type trimNack struct {
	MsgID   uint32
	Missing []int32 // 4 bytes an index, as the NACK's Size charges
}

type trimSender struct {
	stack     *Stack
	dst       netsim.NodeID
	id        uint32
	metas     [][]byte
	data      [][]byte
	metaHdrs  []trimMeta
	dataHdr   *trimData
	metaAcked []bool
	nMetaAck  int
	rto       netsim.Time
	retries   int
	done      func(at netsim.Time)
	failed    func(err error)
	finished  bool
	timer     *netsim.Timer // the metadata RTO
}

// SendTrimmable transmits a trimmable message: metas reliably, data
// packets once at line rate. done fires when the receiver confirms every
// packet was accounted for (delivered or trimmed); failed receives the
// reason when the retransmit budget runs out. Every payload must be a
// trimgrad packet; it panics otherwise. Neither metas and data nor the
// slices in them are copied, here or in the fabric: all are immutable from
// this call on (netsim.Host.Send) — a switch that trims a packet keeps a
// view of the prefix, which the receiver reads in place — so callers must
// not write them again but may hand them to another destination.
func (s *Stack) SendTrimmable(dst netsim.NodeID, id uint32, metas, data [][]byte,
	done func(at netsim.Time), failed func(err error)) {
	mustBeTrimgrad(id, metas)
	mustBeTrimgrad(id, data)
	tx := &trimSender{
		stack: s, dst: dst, id: id,
		metas: metas, data: data,
		metaHdrs:  make([]trimMeta, len(metas)),
		dataHdr:   &trimData{MsgID: id, Total: len(data)},
		metaAcked: make([]bool, len(metas)),
		rto:       s.cfg.RTO,
		done:      done, failed: failed,
	}
	for i := range tx.metaHdrs {
		tx.metaHdrs[i] = trimMeta{MsgID: id, Idx: i, Total: len(metas)}
	}
	tx.timer = s.sim.NewTimer(tx.onTimeout)
	s.trimTx[msgKey{dst, id}] = tx
	for i := range metas {
		tx.sendMeta(i)
	}
	tx.sendRun()
	tx.timer.Reset(tx.rto)
}

func (tx *trimSender) sendMeta(idx int) {
	pkt := tx.stack.sim.NewPacket()
	pkt.Dst = tx.dst
	pkt.Size = payloadSize(tx.metas[idx])
	pkt.Prio = netsim.PrioHigh
	pkt.Payload = tx.metas[idx]
	pkt.FlowID = uint64(tx.id)
	pkt.Control = &tx.metaHdrs[idx]
	tx.stack.host.Send(pkt)
}

func (tx *trimSender) sendData(idx int) {
	tx.stack.Stats.DataSent++
	pkt := tx.stack.sim.NewPacket()
	pkt.Dst = tx.dst
	pkt.Size = payloadSize(tx.data[idx])
	pkt.Payload = tx.data[idx]
	pkt.FlowID = uint64(tx.id)
	pkt.Seq = uint64(idx)
	pkt.Control = tx.dataHdr
	tx.stack.host.Send(pkt)
}

// sendRun sends every data packet, as sendData(0), sendData(1), … would,
// in one Host.SendRun: the NIC builds each record when the wire takes it.
func (tx *trimSender) sendRun() {
	tx.stack.Stats.DataSent += len(tx.data)
	tx.stack.host.SendRun(netsim.Packet{
		Dst:     tx.dst,
		FlowID:  uint64(tx.id),
		Control: tx.dataHdr,
	}, tx.data)
}

// onTimeout re-sends unacked metadata. Data packets are NOT blindly
// retransmitted — the receiver NACKs exactly what is missing.
func (tx *trimSender) onTimeout() {
	tx.stack.Stats.Timeouts++
	tx.retries++
	if tx.retries > tx.stack.cfg.MaxRetries {
		tx.finished = true
		tx.stack.Stats.Failures++
		delete(tx.stack.trimTx, msgKey{tx.dst, tx.id})
		if tx.failed != nil {
			tx.failed(ErrRetriesExhausted)
		}
		return
	}
	tx.rto = tx.stack.cfg.backoff(tx.rto)
	for i, ok := range tx.metaAcked {
		if !ok {
			tx.sendMeta(i)
			tx.stack.Stats.Retransmits++
		}
	}
	// Fallback for the pathological case where *every* data packet of the
	// message was lost: the receiver never learned the data count, so its
	// NACK cannot fire. After a few quiet RTOs, re-blast the data.
	if tx.nMetaAck == len(tx.metaAcked) && tx.retries >= 3 && tx.retries%3 == 0 {
		tx.sendRun()
		tx.stack.Stats.Retransmits += len(tx.data)
	}
	tx.timer.Reset(tx.rto)
}

func (tx *trimSender) onMetaAck(idx int) {
	if tx.finished || idx < 0 || idx >= len(tx.metaAcked) || tx.metaAcked[idx] {
		return
	}
	tx.metaAcked[idx] = true
	tx.nMetaAck++
	// Forward progress: restart the backoff clock.
	tx.rto = tx.stack.cfg.RTO
	tx.retries = 0
}

func (tx *trimSender) onNack(missing []int32) {
	if tx.finished {
		return
	}
	for _, idx := range missing {
		if idx >= 0 && int(idx) < len(tx.data) {
			tx.sendData(int(idx))
			tx.stack.Stats.Retransmits++
		}
	}
	tx.timer.Reset(tx.rto)
}

func (tx *trimSender) onDone() {
	if tx.finished {
		return
	}
	tx.finished = true
	tx.timer.Stop()
	delete(tx.stack.trimTx, msgKey{tx.dst, tx.id})
	if tx.done != nil {
		tx.done(tx.stack.sim.Now())
	}
}

type trimReceiver struct {
	stack    *Stack
	src      netsim.NodeID
	id       uint32
	metaGot  []bool
	nMetaGot int
	dataGot  []bool
	nDataGot int
	complete bool
	nack     *netsim.Timer // the gap check
	metaAcks []trimMetaAck // built with metaGot
	done     *trimDone
}

func (s *Stack) trimReceiverFor(src netsim.NodeID, id uint32, nMeta, nData int) *trimReceiver {
	key := msgKey{src, id}
	rx := s.trimRx[key]
	if rx == nil {
		rx = &trimReceiver{stack: s, src: src, id: id, done: &trimDone{MsgID: id}}
		rx.nack = s.sim.NewTimer(rx.checkGaps)
		s.trimRx[key] = rx
	}
	if rx.metaGot == nil && nMeta > 0 {
		rx.metaGot = make([]bool, nMeta)
		rx.metaAcks = make([]trimMetaAck, nMeta)
		for i := range rx.metaAcks {
			rx.metaAcks[i] = trimMetaAck{MsgID: id, Idx: i}
		}
	}
	if rx.dataGot == nil && nData > 0 {
		rx.dataGot = make([]bool, nData)
	}
	return rx
}

func (s *Stack) handleTrimMeta(p *netsim.Packet, c *trimMeta) {
	if _, ok := s.validPayload(p); !ok {
		// Unacked: the sender's meta RTO re-sends the intact bytes.
		return
	}
	rx := s.trimReceiverFor(p.Src, c.MsgID, c.Total, 0)
	// Always ack, even duplicates: the ack may have been lost.
	s.Stats.AcksSent++
	ack := s.sim.NewPacket()
	ack.Dst = p.Src
	ack.Size = ackSize
	ack.Prio = netsim.PrioHigh
	if c.Idx >= 0 && c.Idx < len(rx.metaAcks) {
		ack.Control = &rx.metaAcks[c.Idx]
	} else { // an index outside the message (a reused id, resized)
		ack.Control = &trimMetaAck{MsgID: c.MsgID, Idx: c.Idx}
	}
	s.host.Send(ack)
	if c.Idx < 0 || c.Idx >= len(rx.metaGot) {
		return
	}
	if rx.metaGot[c.Idx] {
		s.Stats.DupsReceived++
		// A duplicate meta implies the sender missed our done: repeat it.
		if rx.complete {
			rx.sendDone()
		}
		return
	}
	rx.metaGot[c.Idx] = true
	rx.nMetaGot++
	s.deliver(p.Src, p.Payload)
	rx.maybeComplete()
}

func (s *Stack) handleTrimData(p *netsim.Packet, c *trimData) {
	rx := s.trimReceiverFor(p.Src, c.MsgID, 0, c.Total)
	cut, ok := s.validPayload(p)
	if !ok {
		// Not marked in dataGot, so the gap check NACKs it and the sender
		// re-sends from its intact buffer.
		rx.armNack()
		return
	}
	idx := p.Seq
	if idx >= uint64(len(rx.dataGot)) {
		return
	}
	if rx.dataGot[idx] {
		s.Stats.DupsReceived++
		return // accounted for already; never re-delivered
	}
	if cut {
		s.Stats.TrimmedReceived++
	}
	rx.dataGot[idx] = true
	rx.nDataGot++
	s.deliver(p.Src, p.Payload)
	rx.armNack()
	rx.maybeComplete()
}

func (s *Stack) handleTrimMetaAck(p *netsim.Packet, c *trimMetaAck) {
	if tx := s.trimTx[msgKey{p.Src, c.MsgID}]; tx != nil {
		tx.onMetaAck(c.Idx)
	}
}

func (s *Stack) handleTrimDone(p *netsim.Packet, c *trimDone) {
	if tx := s.trimTx[msgKey{p.Src, c.MsgID}]; tx != nil {
		tx.onDone()
	}
}

func (s *Stack) handleTrimNack(p *netsim.Packet, c trimNack) {
	if tx := s.trimTx[msgKey{p.Src, c.MsgID}]; tx != nil {
		tx.onNack(c.Missing)
	}
}

// maybeComplete signals the sender (and the app) when all metas and all
// data heads are in.
func (rx *trimReceiver) maybeComplete() {
	if rx.complete || rx.dataGot == nil || rx.metaGot == nil {
		return
	}
	if rx.nDataGot < len(rx.dataGot) || rx.nMetaGot < len(rx.metaGot) {
		return
	}
	rx.complete = true
	rx.sendDone()
	if rx.stack.OnMessageComplete != nil {
		rx.stack.OnMessageComplete(rx.src, rx.id, rx.stack.sim.Now())
	}
}

func (rx *trimReceiver) sendDone() {
	pkt := rx.stack.sim.NewPacket()
	pkt.Dst = rx.src
	pkt.Size = ackSize
	pkt.Prio = netsim.PrioHigh
	pkt.Control = rx.done
	rx.stack.host.Send(pkt)
}

// armNack schedules a gap check one RTO after the most recent data
// arrival; if packets are still missing, it NACKs them.
func (rx *trimReceiver) armNack() { rx.nack.Reset(rx.stack.cfg.RTO) }

func (rx *trimReceiver) checkGaps() {
	if rx.complete {
		return
	}
	n := min(len(rx.dataGot)-rx.nDataGot, 128)
	if n == 0 {
		return
	}
	missing := make([]int32, 0, n)
	for i, ok := range rx.dataGot {
		if !ok {
			missing = append(missing, int32(i))
			if len(missing) == n {
				break
			}
		}
	}
	rx.stack.Stats.NacksSent++
	pkt := rx.stack.sim.NewPacket()
	pkt.Dst = rx.src
	pkt.Size = ackSize + 4*len(missing)
	pkt.Prio = netsim.PrioHigh
	pkt.Control = trimNack{MsgID: rx.id, Missing: missing}
	rx.stack.host.Send(pkt)
	rx.armNack()
}
