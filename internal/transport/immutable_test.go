package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

// Payload immutability (DESIGN.md §16): once a payload is handed to
// Host.Send its bytes are never written again, by the fabric or by the
// transport, so the sender's retransmit buffers stay byte-identical for
// the life of the message and every retransmission carries the CRCs the
// packet was built with.

// allPayloads lists a message's buffers, metadata first.
func allPayloads(msg *core.Message) [][]byte {
	return append(append([][]byte{}, msg.Meta...), msg.Data...)
}

// incastRig is what incastUnwritten varies.
type incastRig struct {
	queue netsim.QueueConfig
	// aggregate makes the senders distinct flows of one message id, so
	// switches may fold their packets.
	aggregate bool
	faults    *netsim.FaultConfig // on every switch port, if set
	receiver  Receiver            // host 0's, if set
}

// incastUnwritten drives an 8-sender trimmable incast to host 0 of a k=4
// fat tree, on the plain simulator (shards 0) or a sharded one, and fails
// the test unless every sender completes and every byte of every sender
// buffer reads the same before and after. It returns the fabric, stacks
// and messages for the caller to check that the scenario was harsh enough.
func incastUnwritten(t *testing.T, shards int, rig incastRig) (*netsim.Topology, []*Stack, []*core.Message) {
	t.Helper()
	sim := netsim.NewSim()
	topo, err := netsim.FabricSpec{
		Kind:     "fattree",
		K:        4,
		Link:     netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 2 * netsim.Microsecond},
		Queue:    rig.queue,
		ECMPSeed: 11,
	}.Build(sim)
	if err != nil {
		t.Fatal(err)
	}
	if rig.faults != nil {
		for _, sw := range topo.Switches() {
			for _, p := range sw.Ports() {
				p.SetFaults(*rig.faults, uint64(sw.ID()), uint64(p.Peer()))
			}
		}
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
	stacks[0].Receiver = rig.receiver
	const senders = 8
	var msgs []*core.Message
	var before [][]byte
	done := make([]bool, senders)
	for s := 0; s < senders; s++ {
		ccfg, id := coreConfig(), uint32(s+1)
		if rig.aggregate {
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
	return topo, stacks, msgs
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
		topo, stacks, _ := incastUnwritten(t, shards, incastRig{queue: netsim.QueueConfig{
			CapacityBytes: 6000, HighCapacityBytes: 1200, Mode: netsim.TrimOverflow,
		}})
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
		topo, _, _ := incastUnwritten(t, shards, incastRig{queue: netsim.QueueConfig{
			CapacityBytes: 6000, HighCapacityBytes: 1 << 20, Mode: netsim.TrimOverflow,
			AggregateTrimmable: true,
		}, aggregate: true})
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

// TestKeptTrimViewsMatchSender extends TestTrimNeverWritesSenderPayload to
// the receive side: a receiver reads a trimmed packet as a view of its
// sender's bytes, and may keep it. Host 0's receiver keeps every payload it
// is handed through a trimming, aggregating incast whose switch ports
// duplicate, reorder and corrupt, at 1 and 2 shards. At the end every kept
// payload must read as it did when delivered; a kept view of a sender's
// buffer must still be that buffer's prefix, capped at its cut when cut.
// Trimmed views, aggregates and fault copies must all have been kept.
func TestKeptTrimViewsMatchSender(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var kept, snaps [][]byte
			_, _, msgs := incastUnwritten(t, shards, incastRig{
				queue: netsim.QueueConfig{
					CapacityBytes: 6000, HighCapacityBytes: 1 << 20, Mode: netsim.TrimOverflow,
					AggregateTrimmable: true,
				},
				aggregate: true,
				faults:    &netsim.FaultConfig{Seed: 3, DuplicateRate: 0.02, ReorderRate: 0.02, CorruptRate: 0.01},
				receiver: ReceiverFunc(func(_ netsim.NodeID, pl []byte) {
					kept = append(kept, pl)
					snaps = append(snaps, bytes.Clone(pl))
				}),
			})
			type key struct{ flow, row, start uint32 }
			sent := map[key][]byte{}
			for _, msg := range msgs {
				for _, b := range msg.Data {
					h, _ := wire.ParseHeader(b)
					sent[key{h.Flow, h.Row, h.Start}] = b
				}
			}
			var cutViews, views, aggs, copies int
			for i, pl := range kept {
				if !bytes.Equal(pl, snaps[i]) {
					t.Fatalf("kept payload %d was written after delivery", i)
				}
				h, err := wire.ParseHeader(pl)
				if err != nil || h.IsMeta() {
					continue
				}
				if h.IsAgg() {
					aggs++
					continue
				}
				buf := sent[key{h.Flow, h.Row, h.Start}]
				if buf == nil || &pl[0] != &buf[0] {
					copies++
					continue
				}
				views++
				if !bytes.Equal(pl, buf[:len(pl)]) {
					t.Fatalf("kept view %d no longer equals its sender's prefix", i)
				}
				if h.IsCut(len(pl)) {
					cutViews++
					if cap(pl) != len(pl) {
						t.Fatalf("kept cut view %d: %d bytes with capacity %d reach past the cut", i, len(pl), cap(pl))
					}
				}
			}
			t.Logf("kept %d payloads: %d views (%d cut), %d aggregates, %d copies", len(kept), views, cutViews, aggs, copies)
			if cutViews == 0 || aggs == 0 || copies == 0 {
				t.Fatalf("scenario too gentle: %d cut views, %d aggregates, %d fault copies kept", cutViews, aggs, copies)
			}
		})
	}
}

// castagnoli is the CRC-32C table, built here so the reference rule below
// shares no checksum code with the wire format.
var castagnoli = func() (t [256]uint32) {
	for i := range t {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			c = c>>1 ^ 0x82f63b78&-(c&1)
		}
		t[i] = c
	}
	return t
}()

// datagramSum is CRC-32C over a whole payload: the datagram checksum
// senders once stamped into every control header at hand-over.
func datagramSum(b []byte) uint32 {
	c := ^uint32(0)
	for _, x := range b {
		c = castagnoli[byte(c)^x] ^ c>>8
	}
	return ^c
}

// datagramRejects is the admission rule the datagram checksum implemented,
// kept as the reference: an untrimmed payload had to match the sum taken
// at hand-over, and one claiming to be trimgrad had to pass wire.Validate.
func datagramRejects(pl []byte, trimmed bool, sum uint32) bool {
	return !trimmed && datagramSum(pl) != sum ||
		wire.IsTrimgrad(pl) && wire.Validate(pl) != nil
}

// TestAdmissionMatchesDatagramChecksum pins admission on the packets' own
// wire CRCs to the rule it replaced: for every single-bit flip, and seeded
// 2- and 3-bit sets, of each kind of packet a receiver sees, validPayload
// rejects exactly when the datagram checksum plus wire.Validate did. A
// copy corrupted in flight is still rejected end to end.
func TestAdmissionMatchesDatagramChecksum(t *testing.T) {
	enc, _ := core.NewEncoderWith(core.WithConfig(coreConfig()))
	msg, _ := enc.Encode(1, 1, gaussianGrad(8, 1<<12))

	t.Run("flips", func(t *testing.T) {
		data := msg.Data[0]
		h, err := wire.ParseHeader(data)
		if err != nil {
			t.Fatal(err)
		}
		// Header bytes 36..39 hold the CRC-32C of the tail region.
		if tail := data[h.TrimmedSize():]; datagramSum(tail) != binary.BigEndian.Uint32(data[36:]) {
			t.Fatal("datagramSum is not the wire format's CRC-32C")
		}
		sums := make([]float32, 64)
		for i := range sums {
			sums[i] = float32(i) - 20.5
		}
		agg, err := wire.BuildAggPacket(wire.Header{Flow: 2, Message: 1, Row: 3, Count: 64, Seed: 9}, sums, sums)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name    string
			sent    []byte // the payload handed over, which the sum covers
			pl      []byte // what reaches the receiver before any flip
			trimmed bool
		}{
			{"meta", msg.Meta[0], msg.Meta[0], false},
			{"data", data, data, false},
			{"aggregate", agg, agg, false},
			{"trimmed data", data, wire.Trim(bytes.Clone(data), h.TrimmedSize()+h.TailBytes()/2), true},
			{"trimmed aggregate", agg, wire.Trim(bytes.Clone(agg), wire.HeaderSize+4*64+4*20), true},
		}
		rng := xrand.New(27)
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				var s Stack
				rec := netsim.NewSim().NewPacket() // what arrives, rewritten per flip set
				sum := datagramSum(c.sent)
				nbits := 8 * len(c.pl)
				var sets [][]int
				for i := 0; i < nbits; i++ {
					sets = append(sets, []int{i})
				}
				for k := 2; k <= 3; k++ {
					for n := 0; n < 1000; n++ {
						set := []int{rng.Intn(nbits)}
						for len(set) < k {
							if b := rng.Intn(nbits); !slices.Contains(set, b) {
								set = append(set, b)
							}
						}
						sets = append(sets, set)
					}
				}
				rejected := 0
				for _, set := range sets {
					pl := bytes.Clone(c.pl)
					for _, b := range set {
						pl[b/8] ^= 1 << (b % 8)
					}
					want := datagramRejects(pl, c.trimmed, sum)
					rec.Payload, rec.Trimmed = pl, c.trimmed
					if got := !s.validPayload(rec); got != want {
						t.Fatalf("bits %v: rejected=%v, the datagram checksum rule says %v", set, got, want)
					}
					if want {
						rejected++
					}
				}
				if s.Stats.RejectedPackets != rejected {
					t.Fatalf("RejectedPackets = %d, want %d", s.Stats.RejectedPackets, rejected)
				}
				if rec.Payload = c.pl; !s.validPayload(rec) {
					t.Fatal("the packet as it arrived is rejected")
				}
				t.Logf("%d flip sets, %d rejected", len(sets), rejected)
			})
		}
	})

	t.Run("corrupted copy rejected", func(t *testing.T) {
		// Half the transmissions are corrupted on the sender's uplink; the
		// packets' own CRCs convict each bad copy, and a retransmission of
		// the unchanged buffer is accepted.
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
