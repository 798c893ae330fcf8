package transport

import "trimgrad/internal/netsim"

// The reliable protocol: selective-repeat ARQ with per-message state, a
// single RTO timer per message, and AIMD window adjustment driven by ECN
// echoes — a deliberately conventional design standing in for the
// NCCL-over-RoCE/TCP baseline whose loss behaviour §4.4 measures.

// Control headers are built once per message, never per packet, and like
// payloads are written before Host.Send and never after (DESIGN.md §16).

// relData is the control header of a reliable message's data packets,
// shared by all of them: a packet's index rides in Packet.Seq.
type relData struct {
	MsgID uint32
	Total int
}

// relAck acknowledges one reliable data packet. A receiver builds a
// message's acks as a table, one per index and echoed ECN value.
type relAck struct {
	MsgID uint32
	Idx   int
	ECE   bool
}

type relSender struct {
	stack    *Stack
	dst      netsim.NodeID
	id       uint32
	payloads [][]byte
	hdr      *relData
	acked    []bool
	inFlight []bool
	nFlight  int
	nAcked   int
	nextIdx  int
	cwnd     float64
	rto      netsim.Time
	retries  int
	done     func(at netsim.Time)
	failed   func(err error)
	timer    *netsim.Timer // the RTO
	finished bool
}

// SendReliable transmits payloads to dst as message id, invoking done when
// every packet has been acknowledged, or failed (with the reason) after
// MaxRetries timeout rounds. Every payload must be a trimgrad packet; it
// panics otherwise. Neither payloads nor the slices in it are copied, here
// or in the fabric: both are immutable from this call on
// (netsim.Host.Send), so callers must not write them again but may hand
// them to another destination.
func (s *Stack) SendReliable(dst netsim.NodeID, id uint32, payloads [][]byte,
	done func(at netsim.Time), failed func(err error)) {
	mustBeTrimgrad(id, payloads)
	tx := &relSender{
		stack:    s,
		dst:      dst,
		id:       id,
		payloads: payloads,
		hdr:      &relData{MsgID: id, Total: len(payloads)},
		acked:    make([]bool, len(payloads)),
		inFlight: make([]bool, len(payloads)),
		cwnd:     initWindow,
		rto:      s.cfg.RTO,
		done:     done,
		failed:   failed,
	}
	tx.timer = s.sim.NewTimer(tx.onTimeout)
	s.relTx[msgKey{dst, id}] = tx
	tx.pump()
	tx.timer.Reset(tx.rto)
}

// pump transmits as many unsent, unacked packets as the window allows.
func (tx *relSender) pump() {
	for tx.nFlight < int(tx.cwnd) && tx.nextIdx < len(tx.payloads) {
		idx := tx.nextIdx
		tx.nextIdx++
		if tx.acked[idx] {
			continue
		}
		tx.transmit(idx)
	}
}

func (tx *relSender) transmit(idx int) {
	if !tx.inFlight[idx] {
		tx.inFlight[idx] = true
		tx.nFlight++
	}
	tx.stack.Stats.DataSent++
	pkt := tx.stack.sim.NewPacket()
	pkt.Dst = tx.dst
	pkt.Size = payloadSize(tx.payloads[idx])
	pkt.Payload = tx.payloads[idx]
	pkt.FlowID = uint64(tx.id)
	pkt.Seq = uint64(idx)
	pkt.Control = tx.hdr
	tx.stack.host.Send(pkt)
}

func (tx *relSender) onTimeout() {
	tx.stack.Stats.Timeouts++
	tx.retries++
	if tx.retries > tx.stack.cfg.MaxRetries {
		tx.finished = true
		tx.stack.Stats.Failures++
		delete(tx.stack.relTx, msgKey{tx.dst, tx.id})
		if tx.failed != nil {
			tx.failed(ErrRetriesExhausted)
		}
		return
	}
	// Exponential backoff: consecutive silent RTOs stretch the timer so a
	// dead or partitioned peer costs O(MaxRetries · maxBackoff · RTO), not a flood.
	tx.rto = tx.stack.cfg.backoff(tx.rto)
	// Multiplicative decrease and go-back over the unacked set.
	tx.cwnd = tx.cwnd / 2
	if tx.cwnd < 1 {
		tx.cwnd = 1
	}
	tx.stack.cwnd.Set(int64(tx.cwnd * 1000))
	clear(tx.inFlight)
	tx.nFlight = 0
	resent := 0
	for idx, ok := range tx.acked {
		if ok {
			continue
		}
		if resent >= int(tx.cwnd) {
			break
		}
		tx.transmit(idx)
		tx.stack.Stats.Retransmits++
		resent++
	}
	tx.timer.Reset(tx.rto)
}

func (tx *relSender) onAck(idx int, ece bool) {
	if tx.finished || idx < 0 || idx >= len(tx.acked) {
		return
	}
	if !tx.acked[idx] {
		tx.acked[idx] = true
		tx.nAcked++
		if tx.inFlight[idx] {
			tx.inFlight[idx] = false
			tx.nFlight--
		}
		// Forward progress: the path is alive, restart backoff.
		tx.rto = tx.stack.cfg.RTO
		tx.retries = 0
		if ece {
			// One multiplicative decrease per marked ack keeps this
			// simple; DCTCP-style fractional reaction is not needed for
			// the shapes we reproduce.
			tx.cwnd = tx.cwnd * 0.8
			if tx.cwnd < 1 {
				tx.cwnd = 1
			}
		} else {
			tx.cwnd += 1.0 / tx.cwnd // additive increase
			tx.cwnd = min(tx.cwnd, maxWindow)
		}
		tx.stack.cwnd.Set(int64(tx.cwnd * 1000))
	}
	if tx.nAcked == len(tx.payloads) {
		tx.finished = true
		tx.timer.Stop()
		delete(tx.stack.relTx, msgKey{tx.dst, tx.id})
		if tx.done != nil {
			tx.done(tx.stack.sim.Now())
		}
		return
	}
	tx.pump()
	tx.timer.Reset(tx.rto)
}

type relReceiver struct {
	got      []bool
	nGot     int
	complete bool
	acks     [2][]relAck // by echoed ECN value, built at first use
}

// ack returns the header acking packet idx of message id with ECN echo
// ece. An index outside the message (a reused id, resized) gets its own.
func (rx *relReceiver) ack(id uint32, idx uint64, ece bool) *relAck {
	if idx >= uint64(len(rx.got)) {
		return &relAck{MsgID: id, Idx: int(idx), ECE: ece}
	}
	t := &rx.acks[0]
	if ece {
		t = &rx.acks[1]
	}
	if *t == nil {
		*t = make([]relAck, len(rx.got))
		for i := range *t {
			(*t)[i] = relAck{MsgID: id, Idx: i, ECE: ece}
		}
	}
	return &(*t)[idx]
}

func (s *Stack) handleRelData(p *netsim.Packet, c *relData) {
	if !s.validPayload(p) {
		// Deliberately unacked: the sender's RTO treats the corrupted
		// packet as lost and retransmits from its intact buffer.
		return
	}
	key := msgKey{p.Src, c.MsgID}
	rx := s.relRx[key]
	if rx == nil {
		rx = &relReceiver{got: make([]bool, c.Total)}
		s.relRx[key] = rx
	}
	// Echo ECN into the ack so the sender reacts. Duplicates are re-acked
	// too — the original ack may have been the casualty.
	s.Stats.AcksSent++
	ack := s.sim.NewPacket()
	ack.Dst = p.Src
	ack.Size = ackSize
	ack.Prio = netsim.PrioHigh
	ack.Control = rx.ack(c.MsgID, p.Seq, p.ECE)
	s.host.Send(ack)
	idx := p.Seq
	if idx >= uint64(len(rx.got)) {
		return
	}
	if rx.got[idx] {
		s.Stats.DupsReceived++
		return // acked above but never re-delivered
	}
	rx.got[idx] = true
	rx.nGot++
	s.deliver(p.Src, p.Payload)
	if rx.nGot == c.Total && !rx.complete {
		rx.complete = true
		if s.OnMessageComplete != nil {
			s.OnMessageComplete(p.Src, c.MsgID, s.sim.Now())
		}
	}
}

func (s *Stack) handleRelAck(p *netsim.Packet, c *relAck) {
	if tx := s.relTx[msgKey{p.Src, c.MsgID}]; tx != nil {
		tx.onAck(c.Idx, c.ECE)
	}
}
