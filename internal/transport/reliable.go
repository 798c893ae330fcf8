package transport

import "trimgrad/internal/netsim"

// The reliable protocol: selective-repeat ARQ with per-message state, a
// single RTO timer per message, and AIMD window adjustment driven by ECN
// echoes — a deliberately conventional design standing in for the
// NCCL-over-RoCE/TCP baseline whose loss behaviour §4.4 measures.

// relData is the control header of a reliable data packet.
type relData struct {
	MsgID uint32
	Idx   int
	Total int
}

// relAck acknowledges one reliable data packet.
type relAck struct {
	MsgID uint32
	Idx   int
	Total int
	ECE   bool
}

type relSender struct {
	stack    *Stack
	dst      netsim.NodeID
	id       uint32
	payloads [][]byte
	acked    []bool
	inFlight map[int]bool
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
		acked:    make([]bool, len(payloads)),
		inFlight: make(map[int]bool),
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
	for len(tx.inFlight) < int(tx.cwnd) && tx.nextIdx < len(tx.payloads) {
		idx := tx.nextIdx
		tx.nextIdx++
		if tx.acked[idx] {
			continue
		}
		tx.transmit(idx)
	}
}

func (tx *relSender) transmit(idx int) {
	tx.inFlight[idx] = true
	tx.stack.Stats.DataSent++
	pkt := tx.stack.sim.NewPacket()
	pkt.Dst = tx.dst
	pkt.Size = payloadSize(tx.payloads[idx])
	pkt.Payload = tx.payloads[idx]
	pkt.Kind = "rel-data"
	pkt.FlowID = uint64(tx.id)
	pkt.Seq = uint64(idx)
	pkt.Control = relData{MsgID: tx.id, Idx: idx, Total: len(tx.payloads)}
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
	tx.inFlight = make(map[int]bool)
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

func (tx *relSender) onAck(a relAck) {
	if tx.finished || a.Idx < 0 || a.Idx >= len(tx.acked) {
		return
	}
	if !tx.acked[a.Idx] {
		tx.acked[a.Idx] = true
		tx.nAcked++
		delete(tx.inFlight, a.Idx)
		// Forward progress: the path is alive, restart backoff.
		tx.rto = tx.stack.cfg.RTO
		tx.retries = 0
		if a.ECE {
			// One multiplicative decrease per marked ack keeps this
			// simple; DCTCP-style fractional reaction is not needed for
			// the shapes we reproduce.
			tx.cwnd = tx.cwnd * 0.8
			if tx.cwnd < 1 {
				tx.cwnd = 1
			}
		} else {
			tx.cwnd += 1.0 / tx.cwnd // additive increase
			if tx.cwnd > float64(tx.stack.cfg.MaxWindow) {
				tx.cwnd = float64(tx.stack.cfg.MaxWindow)
			}
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
}

func (s *Stack) handleRelData(p *netsim.Packet, c relData) {
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
	ack.Kind = "rel-ack"
	ack.Control = relAck{MsgID: c.MsgID, Idx: c.Idx, Total: c.Total, ECE: p.ECE}
	s.host.Send(ack)
	if c.Idx < 0 || c.Idx >= len(rx.got) {
		return
	}
	if rx.got[c.Idx] {
		s.Stats.DupsReceived++
		return // acked above but never re-delivered
	}
	rx.got[c.Idx] = true
	rx.nGot++
	s.deliver(p.Src, p.Payload)
	if rx.nGot == c.Total && !rx.complete {
		rx.complete = true
		if s.OnMessageComplete != nil {
			s.OnMessageComplete(p.Src, c.MsgID, s.sim.Now())
		}
	}
}

func (s *Stack) handleRelAck(p *netsim.Packet, c relAck) {
	if tx := s.relTx[msgKey{p.Src, c.MsgID}]; tx != nil {
		tx.onAck(c)
	}
}
