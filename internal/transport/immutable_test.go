package transport

import (
	"bytes"
	"fmt"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
)

// Payload immutability (DESIGN.md §16): once a payload is handed to
// Host.Send its bytes are never written again, by the fabric or by the
// transport, so the sender's retransmit buffers stay byte-identical for
// the life of the message and each payload needs one datagram checksum.

// allPayloads lists a message's buffers, metadata first.
func allPayloads(msg *core.Message) [][]byte {
	return append(append([][]byte{}, msg.Meta...), msg.Data...)
}

// incastUnwritten drives an 8-sender trimmable incast to host 0 of a k=4
// fat tree with queues q, on the plain simulator (shards 0) or a sharded
// one, and fails the test unless every sender completes and every byte of
// every sender buffer reads the same before and after. When aggregate is
// set the senders are distinct flows of one message id, so switches may
// fold their packets. It returns the fabric and stacks for the caller to
// check that the scenario was harsh enough.
func incastUnwritten(t *testing.T, shards int, q netsim.QueueConfig, aggregate bool) (*netsim.Topology, []*Stack) {
	t.Helper()
	sim := netsim.NewSim()
	topo, err := netsim.NewFatTree(sim, netsim.FatTreeConfig{
		K:        4,
		HostLink: netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 2 * netsim.Microsecond},
		Queue:    q,
		ECMPSeed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() { sim.RunUntil(5 * netsim.Second) }
	if shards > 0 {
		eng, err := netsim.ShardTopology(topo, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		run = func() { eng.RunUntil(5 * netsim.Second) }
	}

	cfg := Config{RTO: 100 * netsim.Microsecond, MaxRetries: 200}
	stacks := make([]*Stack, len(topo.Hosts))
	for i, h := range topo.Hosts {
		stacks[i] = newStack(h, cfg)
	}
	const senders = 8
	var msgs []*core.Message
	var before [][]byte
	done := make([]bool, senders)
	for s := 0; s < senders; s++ {
		ccfg, id := coreConfig(), uint32(s+1)
		if aggregate {
			ccfg.Flow, id = uint32(s+1), 1
		}
		enc, err := core.NewEncoderWith(core.WithConfig(ccfg))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := enc.Encode(1, id, gaussianGrad(uint64(50+s), 1<<13))
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, msg)
		for _, b := range allPayloads(msg) {
			before = append(before, bytes.Clone(b))
		}
	}
	for s, msg := range msgs {
		src := len(topo.Hosts) - 1 - s // other pods first: the longest paths
		stacks[src].SendTrimmable(topo.Hosts[0].ID(), msg.ID, msg.Meta, msg.Data,
			func(netsim.Time) { done[s] = true },
			func(err error) { t.Errorf("sender %d failed: %v", s, err) })
	}
	run()

	for s, ok := range done {
		if !ok {
			t.Fatalf("sender %d did not complete", s)
		}
	}
	i := 0
	for s, msg := range msgs {
		for j, b := range allPayloads(msg) {
			if !bytes.Equal(b, before[i]) {
				t.Fatalf("sender %d payload %d was written after Send", s, j)
			}
			i++
		}
	}
	return topo, stacks
}

// plainAndSharded runs f on the plain simulator (shards 0) and a 2-shard one.
func plainAndSharded(t *testing.T, f func(t *testing.T, shards int)) {
	for _, shards := range []int{0, 2} {
		name := "plain"
		if shards > 0 {
			name = fmt.Sprintf("shards=%d", shards)
		}
		t.Run(name, func(t *testing.T) { f(t, shards) })
	}
}

// TestTrimNeverWritesSenderPayload pins the fix for the sender-buffer
// corruption: a packet trimmed at one hop, dropped at the next and NACKed
// used to be re-sent from a buffer the in-place trim had already rewritten
// (FlagTrimmed set, tail CRC zeroed). An incast through shallow trimming
// queues with a header queue small enough to drop trimmed headers drives
// exactly that sequence; every byte of every sender buffer must read the
// same before and after, on the plain simulator and on a sharded one.
func TestTrimNeverWritesSenderPayload(t *testing.T) {
	plainAndSharded(t, func(t *testing.T, shards int) {
		topo, stacks := incastUnwritten(t, shards, netsim.QueueConfig{
			CapacityBytes: 6000, HighCapacityBytes: 1200, Mode: netsim.TrimOverflow,
		}, false)
		trimmed, dropped, retx := 0, 0, 0
		for _, sw := range topo.Switches() {
			for _, p := range sw.Ports() {
				trimmed += p.Stats.Trimmed
				dropped += p.Stats.Dropped
			}
		}
		for _, st := range stacks {
			retx += st.Stats.Retransmits
		}
		if trimmed == 0 || dropped == 0 || retx == 0 {
			t.Fatalf("scenario too gentle to reach the bug: trimmed=%d dropped=%d retransmits=%d", trimmed, dropped, retx)
		}
	})
}

// TestMergeNeverWritesSenderPayload is the same guard for the fabric's
// other payload writer, the aggregating switch: the senders share one
// message id, so their packets fold where they queue together, and a jumbo
// aggregate that overflows the queue is trimmed in turn. A merge builds a
// fresh buffer; it never writes an operand.
func TestMergeNeverWritesSenderPayload(t *testing.T) {
	plainAndSharded(t, func(t *testing.T, shards int) {
		topo, _ := incastUnwritten(t, shards, netsim.QueueConfig{
			CapacityBytes: 6000, HighCapacityBytes: 1 << 20, Mode: netsim.TrimOverflow,
			AggregateTrimmable: true,
		}, true)
		merged, trimmed := 0, 0
		for _, sw := range topo.Switches() {
			for _, p := range sw.Ports() {
				merged += p.Stats.Aggregated
				trimmed += p.Stats.Trimmed
			}
		}
		if merged == 0 || trimmed == 0 {
			t.Fatalf("scenario too gentle: aggregated=%d trimmed=%d", merged, trimmed)
		}
	})
}

// TestRetransmitCarriesFirstSendChecksum pins the once-per-message datagram
// checksum: a retransmission reuses the sum taken at hand-over, it equals
// what a fresh checksum of the (unchanged) buffer gives, and a copy
// corrupted in flight is still rejected by it.
func TestRetransmitCarriesFirstSendChecksum(t *testing.T) {
	enc, _ := core.NewEncoderWith(core.WithConfig(coreConfig()))
	msg, _ := enc.Encode(1, 1, gaussianGrad(8, 1<<12))

	t.Run("reliable", func(t *testing.T) {
		// Random loss in both directions: a lost ack makes the receiver see
		// the same payload twice, first send and retransmission.
		sim, a, b := pair(netsim.QueueConfig{CapacityBytes: 1 << 20, LossRate: 0.2, LossSeed: 3}, fastLink())
		payloads := allPayloads(msg)
		sums := map[int][]uint32{}
		inner := b.host.Handler
		b.host.Handler = func(p *netsim.Packet) {
			if c, ok := p.Control.(relData); ok {
				sums[c.Idx] = append(sums[c.Idx], c.Sum)
			}
			inner(p)
		}
		completed := false
		a.SendReliable(1, 1, payloads, func(netsim.Time) { completed = true },
			func(err error) { t.Fatalf("failed: %v", err) })
		sim.Run()
		if !completed || a.Stats.Retransmits == 0 {
			t.Fatalf("completed=%v retransmits=%d: want a completed run with retransmissions", completed, a.Stats.Retransmits)
		}
		repeats := 0
		for idx, got := range sums {
			for _, s := range got {
				if s != payloadSum(payloads[idx]) {
					t.Fatalf("payload %d sent with sum %08x, buffer sums to %08x", idx, s, payloadSum(payloads[idx]))
				}
			}
			if len(got) > 1 {
				repeats++
			}
		}
		if repeats == 0 {
			t.Fatal("no payload reached the receiver twice; the retransmit sum went unobserved")
		}
	})

	t.Run("trimmable", func(t *testing.T) {
		// Random loss: data packets are lost whole and NACK-repaired.
		sim := netsim.NewSim()
		star := netsim.NewStar(sim, 2, fastLink(),
			netsim.QueueConfig{CapacityBytes: 1 << 20, LossRate: 0.2, LossSeed: 4})
		a := newStack(star.Hosts[0], Config{RTO: 200 * netsim.Microsecond})
		b := newStack(star.Hosts[1], Config{RTO: 200 * netsim.Microsecond})
		sums := map[int][]uint32{}
		inner := b.host.Handler
		b.host.Handler = func(p *netsim.Packet) {
			if c, ok := p.Control.(trimData); ok {
				sums[c.Idx] = append(sums[c.Idx], c.Sum)
			}
			inner(p)
		}
		completed := false
		a.SendTrimmable(1, 1, msg.Meta, msg.Data, func(netsim.Time) { completed = true },
			func(err error) { t.Fatalf("failed: %v", err) })
		sim.Run()
		if !completed || a.Stats.Retransmits == 0 {
			t.Fatalf("completed=%v retransmits=%d: want a completed run with retransmissions", completed, a.Stats.Retransmits)
		}
		for idx, got := range sums {
			for _, s := range got {
				if s != payloadSum(msg.Data[idx]) {
					t.Fatalf("data %d sent with sum %08x, buffer sums to %08x", idx, s, payloadSum(msg.Data[idx]))
				}
			}
		}
	})

	t.Run("corrupted copy rejected", func(t *testing.T) {
		// Half the transmissions are corrupted on the sender's uplink; the
		// cached sum convicts each bad copy, and a retransmission — same
		// buffer, same sum — is accepted.
		sim, a, b := pair(netsim.QueueConfig{CapacityBytes: 1 << 20}, fastLink())
		a.host.Uplink().SetFaults(netsim.FaultConfig{Seed: 5, CorruptRate: 0.5, CorruptBits: 3})
		payloads := allPayloads(msg)
		delivered := 0
		b.Receiver = ReceiverFunc(func(_ netsim.NodeID, pl []byte) {
			delivered++
			for _, want := range payloads {
				if bytes.Equal(pl, want) {
					return
				}
			}
			t.Error("delivered a payload that matches no sent buffer")
		})
		completed := false
		a.SendReliable(1, 1, payloads, func(netsim.Time) { completed = true },
			func(err error) { t.Fatalf("failed: %v", err) })
		sim.Run()
		if !completed || delivered != len(payloads) {
			t.Fatalf("completed=%v delivered=%d/%d", completed, delivered, len(payloads))
		}
		if b.Stats.RejectedPackets == 0 || a.Stats.Retransmits == 0 {
			t.Fatalf("rejected=%d retransmits=%d: corruption never exercised the checksum", b.Stats.RejectedPackets, a.Stats.Retransmits)
		}
	})
}
