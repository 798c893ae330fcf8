package transport

import (
	"fmt"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/vecmath"
)

// TestReliableWindowRules pins the reliable sender's window through its
// cwnd gauge: every new ack grows it by 1/cwnd up to maxWindow, every RTO
// halves it, and it never falls below one packet. A lossless pair acks a
// message long enough to reach maxWindow from initWindow, then a failed
// peer leaves a second message to time out.
func TestReliableWindowRules(t *testing.T) {
	reg := obs.New()
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, 3, fastLink(), netsim.QueueConfig{CapacityBytes: 1 << 20}, netsim.WithRegistry(reg))
	a := newStack(star.Hosts[0], Config{})
	newStack(star.Hosts[1], Config{})
	gauge := reg.Gauge(fmt.Sprintf("transport.h%d.cwnd_x1000", star.Hosts[0].ID()))
	enc, _ := core.NewEncoderWith(core.WithConfig(coreConfig()))
	msg, _ := enc.Encode(1, 1, gaussianGrad(9, 1<<8))
	// Growing initWindow to maxWindow by 1/cwnd takes about
	// (maxWindow² − initWindow²)/2 acks; one small payload, repeated.
	payloads := make([][]byte, maxWindow*maxWindow/2+1000)
	for i := range payloads {
		payloads[i] = msg.Data[0]
	}

	cwnd, acks := float64(initWindow), 0
	seen := make([]bool, len(payloads))
	handle := star.Hosts[0].Handler
	star.Hosts[0].Handler = func(p *netsim.Packet) {
		handle(p)
		c, ok := p.Control.(*relAck)
		if !ok || seen[c.Idx] {
			return
		}
		seen[c.Idx] = true
		acks++
		cwnd = min(cwnd+1/cwnd, maxWindow)
		if got, want := gauge.Value(), int64(cwnd*1000); got != want {
			t.Fatalf("after new ack %d: cwnd_x1000 %d, want %d", acks, got, want)
		}
	}
	done := false
	a.SendReliable(1, 1, payloads, func(netsim.Time) { done = true }, nil)
	sim.RunUntil(netsim.Second)
	if !done || acks != len(payloads) || a.Stats.Timeouts != 0 {
		t.Fatalf("lossless message: done=%v after %d of %d acks, %d timeouts", done, acks, len(payloads), a.Stats.Timeouts)
	}
	if gauge.Value() != maxWindow*1000 {
		t.Fatalf("window stopped at %d/1000 packets, want maxWindow %d", gauge.Value(), maxWindow)
	}

	star.Hosts[2].Fail()
	start := sim.Now()
	a.SendReliable(2, 2, payloads[:64], func(netsim.Time) { t.Error("completed against a failed host") }, nil)
	rto := a.cfg.RTO
	cwnd = initWindow
	// The k-th timeout fires (2^k − 1)·RTO after the send while the backoff
	// doubles; by the fifth the window has been at its floor once.
	for k, at := range []netsim.Time{1, 3, 7, 15, 31} {
		sim.RunUntil(start + at*rto)
		if a.Stats.Timeouts != k+1 {
			t.Fatalf("%d timeouts by %v×RTO, want %d", a.Stats.Timeouts, at, k+1)
		}
		cwnd = max(cwnd/2, 1)
		if got, want := gauge.Value(), int64(cwnd*1000); got != want {
			t.Fatalf("after RTO %d: cwnd_x1000 %d, want %d", k+1, got, want)
		}
	}
	if cwnd != 1 {
		t.Fatalf("five halvings from %d left the window at %v, want the floor 1", initWindow, cwnd)
	}
}

// TestReliableManyMessagesInterleaved: several concurrent messages between
// the same pair must demultiplex correctly.
func TestReliableManyMessagesInterleaved(t *testing.T) {
	sim, a, b := pair(netsim.QueueConfig{CapacityBytes: 1 << 20}, fastLink())
	enc, _ := core.NewEncoderWith(core.WithConfig(coreConfig()))
	const nMsgs = 5
	grads := make([][]float32, nMsgs)
	decs := make([]*core.Decoder, nMsgs)
	for i := range grads {
		grads[i] = gaussianGrad(uint64(i)+20, 3000)
		decs[i], _ = core.NewDecoderWith(uint32(i+1), core.WithConfig(coreConfig()))
	}
	b.Receiver = ReceiverFunc(func(_ netsim.NodeID, pl []byte) {
		for _, d := range decs {
			if d.Handle(pl) == nil {
				return
			}
		}
	})
	done := 0
	for i := range grads {
		msg, _ := enc.Encode(1, uint32(i+1), grads[i])
		payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
		a.SendReliable(1, uint32(i+1), payloads, func(netsim.Time) { done++ }, nil)
	}
	sim.Run()
	if done != nMsgs {
		t.Fatalf("completed %d/%d", done, nMsgs)
	}
	for i, d := range decs {
		out, _, err := d.Reconstruct(len(grads[i]))
		if err != nil {
			t.Fatal(err)
		}
		if nm := vecmath.NMSE(grads[i], out); nm > 1e-8 {
			t.Errorf("message %d: NMSE %g", i, nm)
		}
	}
}

// TestTrimAwareBidirectional: both hosts send to each other concurrently
// over one stack pair.
func TestTrimAwareBidirectional(t *testing.T) {
	sim, a, b := pair(netsim.QueueConfig{CapacityBytes: 1 << 20, Mode: netsim.TrimOverflow}, fastLink())
	enc, _ := core.NewEncoderWith(core.WithConfig(coreConfig()))
	gradA := gaussianGrad(30, 4096)
	gradB := gaussianGrad(31, 4096)
	decAtB, _ := core.NewDecoderWith(1, core.WithConfig(coreConfig()))
	decAtA, _ := core.NewDecoderWith(2, core.WithConfig(coreConfig()))
	a.Receiver = ReceiverFunc(func(_ netsim.NodeID, pl []byte) { _ = decAtA.Handle(pl) })
	b.Receiver = ReceiverFunc(func(_ netsim.NodeID, pl []byte) { _ = decAtB.Handle(pl) })
	msgA, _ := enc.Encode(1, 1, gradA)
	msgB, _ := enc.Encode(1, 2, gradB)
	done := 0
	a.SendTrimmable(1, 1, msgA.Meta, msgA.Data, func(netsim.Time) { done++ }, nil)
	b.SendTrimmable(0, 2, msgB.Meta, msgB.Data, func(netsim.Time) { done++ }, nil)
	sim.Run()
	if done != 2 {
		t.Fatalf("completed %d/2", done)
	}
	outB, _, _ := decAtB.Reconstruct(len(gradA))
	outA, _, _ := decAtA.Reconstruct(len(gradB))
	if vecmath.NMSE(gradA, outB) > 1e-8 || vecmath.NMSE(gradB, outA) > 1e-8 {
		t.Error("bidirectional decode mismatch")
	}
}

// TestTrimAwareDuplicateDataIgnored: the receiver's bookkeeping delivers
// each payload once and completes only when every packet is in.
// TestTrimmableDuplicateAckedNotRedelivered duplicates every packet in
// flight.
func TestTrimAwareDuplicateDataIgnored(t *testing.T) {
	sim, a, b := pair(netsim.QueueConfig{CapacityBytes: 1 << 20, Mode: netsim.TrimOverflow}, fastLink())
	enc, _ := core.NewEncoderWith(core.WithConfig(coreConfig()))
	grad := gaussianGrad(32, 2048)
	dec, _ := core.NewDecoderWith(1, core.WithConfig(coreConfig()))
	delivered := 0
	b.Receiver = ReceiverFunc(func(_ netsim.NodeID, pl []byte) {
		delivered++
		_ = dec.Handle(pl)
	})
	msg, _ := enc.Encode(1, 1, grad)
	done := false
	a.SendTrimmable(1, 1, msg.Meta, msg.Data, func(netsim.Time) { done = true }, nil)
	sim.Run()
	if !done {
		t.Fatal("did not complete")
	}
	if delivered != len(msg.Meta)+len(msg.Data) {
		t.Fatalf("delivered %d, want %d", delivered, len(msg.Meta)+len(msg.Data))
	}
	out, _, _ := dec.Reconstruct(len(grad))
	if nm := vecmath.NMSE(grad, out); nm > 1e-8 {
		t.Errorf("NMSE %g", nm)
	}
}

// TestStatsAccounting sanity-checks the transport counters.
func TestStatsAccounting(t *testing.T) {
	sim, a, b := pair(netsim.QueueConfig{CapacityBytes: 1 << 20}, fastLink())
	enc, _ := core.NewEncoderWith(core.WithConfig(coreConfig()))
	msg, _ := enc.Encode(1, 1, gaussianGrad(33, 4096))
	b.Receiver = ReceiverFunc(func(netsim.NodeID, []byte) {})
	payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
	a.SendReliable(1, 1, payloads, nil, nil)
	sim.Run()
	if a.Stats.DataSent != len(payloads) {
		t.Errorf("DataSent = %d, want %d", a.Stats.DataSent, len(payloads))
	}
	if b.Stats.DataDelivered != len(payloads) {
		t.Errorf("DataDelivered = %d, want %d", b.Stats.DataDelivered, len(payloads))
	}
	if b.Stats.AcksSent != len(payloads) {
		t.Errorf("AcksSent = %d, want %d", b.Stats.AcksSent, len(payloads))
	}
}
