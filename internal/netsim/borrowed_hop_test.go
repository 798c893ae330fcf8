package netsim

import (
	"bytes"
	"runtime"
	"testing"

	"trimgrad/internal/wire"
)

// TestBorrowedHopAllocations is the per-hop allocation guard for payloads
// as every transport sends them. Host.Send borrows the bytes instead of
// copying them, at every shard count: a flood that resends the same eight
// buffers must allocate no payload-sized memory at injection and stay
// within the ≤1 alloc/hop budget. A trim allocates nothing either: the
// receiver reads a view of the sender's buffer, capped at exactly the kept
// prefix, a warmed trimming flood allocates nothing at all, and the
// sender's buffer reads as it was.
func TestBorrowedHopAllocations(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(map[int]string{1: "shards=1", 2: "shards=2", 4: "shards=4"}[shards], func(t *testing.T) {
			sim := NewSim()
			link := LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}
			topo := NewRing(sim, 8, link, link, QueueConfig{})
			eng, err := ShardTopology(topo, shards)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			// Handlers run on shard goroutines: each host counts into its own slot.
			got := make([]int, len(topo.Hosts))
			payloads := make([][]byte, len(topo.Hosts))
			for i, h := range topo.Hosts {
				h.Handler = func(p *Packet) {
					if len(p.Payload) > 0 && &p.Payload[0] == &payloads[(i+7)%8][0] {
						got[i]++
					}
				}
				payloads[i] = gradPayload(t, 512)
			}
			const pkts = 32
			send := func() {
				for j := 0; j < pkts; j++ {
					for i, h := range topo.Hosts {
						pkt := h.Sim().NewPacket()
						pkt.Dst = topo.Hosts[(i+1)%len(topo.Hosts)].ID()
						pkt.Size = len(payloads[i]) + wire.NetOverhead
						pkt.Payload = payloads[i]
						h.Send(pkt)
					}
				}
				eng.Run()
			}
			send() // warm per-shard pools and queue arrays
			for i, n := range got {
				if n != pkts {
					t.Fatalf("host %d received the sender's own buffer %d/%d times: a hop copied the payload", i, n, pkts)
				}
			}
			const hops = pkts * 8 * 3
			avg := testing.AllocsPerRun(10, send)
			if perHop := avg / hops; perHop > 1 {
				t.Fatalf("%.2f allocs per packet hop at %d shards (budget 1); %.1f per run", perHop, shards, avg)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			send()
			runtime.ReadMemStats(&m1)
			if grew, one := m1.TotalAlloc-m0.TotalAlloc, uint64(pkts*8*len(payloads[0])); grew > one/8 {
				t.Fatalf("one flood allocated %d bytes; copying its payloads once would be %d", grew, one)
			}
		})
	}

	t.Run("trim delivers a view", func(t *testing.T) {
		sim := NewSim()
		const target = 400
		star := NewStar(sim, 3, LinkConfig{Bandwidth: Mbps(10), Delay: 0},
			QueueConfig{CapacityBytes: 3000, HighCapacityBytes: 1 << 20, Mode: TrimOverflow, TrimTarget: target})
		payload := gradPayload(t, 512)
		orig := append([]byte(nil), payload...)
		keep := len(wire.Trim(payload, target-wire.NetOverhead))
		trimmed := 0
		star.Hosts[2].Handler = func(p *Packet) {
			if !isCut(p) {
				return
			}
			trimmed++
			if len(p.Payload) != keep || cap(p.Payload) != keep || &p.Payload[0] != &payload[0] {
				t.Errorf("trimmed payload len %d cap %d, a view of the sent buffer: %v; want a view of its first %d bytes (wire.Trim)",
					len(p.Payload), cap(p.Payload), &p.Payload[0] == &payload[0], keep)
			}
		}
		flood := func() {
			for i := 0; i < 20; i++ {
				for s := 0; s < 2; s++ {
					star.Hosts[s].Send(record(sim, Packet{Dst: 2, Size: len(payload) + wire.NetOverhead, Payload: payload}))
				}
			}
			sim.Run()
		}
		flood() // warm the pools and queue arrays
		if trimmed == 0 || keep >= len(payload) {
			t.Fatalf("trimmed %d packets to %d of %d bytes: the scenario trims nothing", trimmed, keep, len(payload))
		}
		if avg := testing.AllocsPerRun(5, flood); avg != 0 {
			t.Fatalf("a warmed flood that trims allocates %.1f times", avg)
		}
		if !bytes.Equal(payload, orig) {
			t.Fatal("a trim wrote the borrowed payload")
		}
	})
}
