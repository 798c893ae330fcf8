package transport

import (
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/vecmath"
)

// TestReliableECNKeepsQueuesShallow: with ECN marking and the AIMD
// reaction, the reliable sender should keep the switch queue well below
// its capacity compared to a run without ECN.
func TestReliableECNKeepsQueuesShallow(t *testing.T) {
	run := func(ecnThreshold int) int {
		sim := netsim.NewSim()
		// Fast edge into a 10x slower bottleneck: the sender's window
		// piles up at the left switch's bottleneck port.
		d := netsim.NewDumbbell(sim, 1, 1,
			netsim.LinkConfig{Bandwidth: netsim.Gbps(1), Delay: 5 * netsim.Microsecond},
			netsim.LinkConfig{Bandwidth: netsim.Mbps(100), Delay: 20 * netsim.Microsecond},
			netsim.QueueConfig{CapacityBytes: 1 << 20, ECNThresholdBytes: ecnThreshold})
		a := newStack(d.Hosts[0], Config{})
		b := newStack(d.Hosts[1], Config{})
		b.Receiver = ReceiverFunc(func(netsim.NodeID, []byte) {})
		enc, _ := core.NewEncoderWith(core.WithConfig(coreConfig()))
		msg, _ := enc.Encode(1, 1, gaussianGrad(9, 1<<15))
		payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
		done := false
		a.SendReliable(d.Hosts[1].ID(), 1, payloads,
			func(netsim.Time) { done = true }, nil)
		sim.RunUntil(10 * netsim.Second)
		if !done {
			t.Fatal("did not complete")
		}
		sw := d.Tier(netsim.TierEdge)
		return sw[0].Port(sw[1].ID()).Stats.MaxQueueBytes
	}
	withECN := run(10_000)
	without := run(0)
	if withECN >= without {
		t.Errorf("ECN run queue depth %d should be below no-ECN %d", withECN, without)
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
