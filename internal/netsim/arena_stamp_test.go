package netsim

import (
	"bytes"
	"runtime"
	"testing"

	"trimgrad/internal/wire"
)

// Fabric-level tests for generation-stamped arena payloads (DESIGN.md
// §16): stale touches become counted drops, and the stamped zero-copy
// fast path holds the ≤1 alloc/hop budget under aliasing faults and at
// every shard count.

// stampedPacket builds a pooled packet carrying a freshly stamped arena
// payload of n bytes.
func stampedPacket(sim *Sim, a *wire.Arena, dst NodeID, n int) (*Packet, []byte) {
	buf, gen := a.GetStamped(n)
	pkt := sim.NewPacket()
	pkt.Dst = dst
	pkt.Size = n
	pkt.Payload = buf
	pkt.PayloadOwner = a
	pkt.PayloadGen = gen
	return pkt, buf
}

// TestArenaStaleDropCounted reproduces the ownership violation the stamps
// defend against: a payload recycled while its packet is still in flight.
// The fabric must count a stale drop at the next validation point and
// never deliver the torn buffer.
func TestArenaStaleDropCounted(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2,
		LinkConfig{Bandwidth: Gbps(10), Delay: 5 * Microsecond},
		QueueConfig{CapacityBytes: 1 << 20})
	delivered := 0
	star.Hosts[1].Handler = func(*Packet) { delivered++ }

	a := wire.NewArena()
	pkt, buf := stampedPacket(sim, a, star.Hosts[1].ID(), 1500)
	star.Hosts[0].Send(pkt) // Send registers the in-flight reference

	// The violation: the owner releases, and a non-owner force-drains the
	// parked recycle with an unbalanced EndFlight. The buffer re-enters the
	// free list and its generation moves on while the packet still rides
	// the fabric.
	a.Put(buf)
	a.EndFlight(buf)

	sim.Run()
	if delivered != 0 {
		t.Fatalf("stale payload delivered %d times, want 0", delivered)
	}
	if n := sim.StaleDrops(); n != 1 {
		t.Fatalf("sim.StaleDrops() = %d, want 1", n)
	}
	swDrops := 0
	for _, p := range star.Tier(TierEdge)[0].Ports() {
		swDrops += p.Stats.StaleDrops
	}
	if swDrops != 1 {
		t.Fatalf("switch ports counted %d stale drops, want 1", swDrops)
	}

	// A clean send on the same (recycled) buffer must go through: the new
	// stamp is the live generation.
	pkt2, buf2 := stampedPacket(sim, a, star.Hosts[1].ID(), 1500)
	star.Hosts[0].Send(pkt2)
	sim.Run()
	if delivered != 1 {
		t.Fatalf("fresh stamped send delivered %d times, want 1", delivered)
	}
	if n := sim.StaleDrops(); n != 1 {
		t.Fatalf("clean send moved StaleDrops to %d, want still 1", n)
	}
	a.Put(buf2)
}

// TestArenaFaultHopAllocations is the chaos half of the alloc guard:
// stamped arena payloads under reordering plus duplication — the aliasing
// faults that once forced a payload copy — must stay within the fabric's
// ≤1 alloc/hop budget. (Each duplicate clones its payload by design;
// that is the only allocation the fault path adds.)
func TestArenaFaultHopAllocations(t *testing.T) {
	sim := NewSim()
	link := LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}
	star := NewStar(sim, 4, link, QueueConfig{})
	for _, h := range star.Hosts {
		h.Handler = func(*Packet) {}
	}
	star.Net.InjectFaults(0, SwitchIDBase, FaultConfig{
		Seed: 3, ReorderRate: 0.3, ReorderDelay: 5 * Microsecond, DuplicateRate: 0.3,
	})
	a := wire.NewArena()
	const pkts = 64
	bufs := make([][]byte, 0, pkts)
	send := func() {
		bufs = bufs[:0]
		for i := 0; i < pkts; i++ {
			pkt, buf := stampedPacket(sim, a, star.Hosts[(i+1)%4].ID(), 1500)
			bufs = append(bufs, buf)
			star.Hosts[i%4].Send(pkt)
		}
		sim.Run()
		// Flights drained with the sim: every Put recycles immediately and
		// the next round's Gets are free-list hits.
		for _, b := range bufs {
			a.Put(b)
		}
	}
	send() // warm pools, free lists, and stamp registrations
	const hops = pkts * 2
	avg := testing.AllocsPerRun(10, send)
	if perHop := avg / hops; perHop > 1 {
		t.Fatalf("%.2f allocs per packet hop under reorder+duplicate (budget 1); %.1f per run", perHop, avg)
	}
	if n := sim.StaleDrops(); n != 0 {
		t.Fatalf("correct run counted %d stale drops, want 0", n)
	}
}

// TestArenaShardHopAllocations extends the guard across the partitioned
// engine: 2-, 4-, and 8-shard runs of the neighbor flood must hold the
// same ≤1 alloc/hop budget with stamped payloads (flight accounting on
// every hop's terminal point) as without.
func TestArenaShardHopAllocations(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		t.Run(map[int]string{2: "shards=2", 4: "shards=4", 8: "shards=8"}[shards], func(t *testing.T) {
			sim := NewSim()
			link := LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}
			topo := NewRing(sim, 8, link, link, QueueConfig{})
			eng, err := ShardTopology(topo, shards)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for _, h := range topo.Hosts {
				h.Handler = func(*Packet) {}
			}
			a := wire.NewArena()
			const pkts = 32
			bufs := make([][]byte, 0, pkts*8)
			send := func() {
				bufs = bufs[:0]
				for j := 0; j < pkts; j++ {
					for i, h := range topo.Hosts {
						pkt, buf := stampedPacket(h.Sim(), a, topo.Hosts[(i+1)%len(topo.Hosts)].ID(), 1500)
						bufs = append(bufs, buf)
						h.Send(pkt)
					}
				}
				eng.Run()
				for _, b := range bufs {
					a.Put(b)
				}
			}
			send() // warm per-shard pools and the shared arena
			const hops = pkts * 8 * 3
			avg := testing.AllocsPerRun(10, send)
			if perHop := avg / hops; perHop > 1 {
				t.Fatalf("%.2f allocs per packet hop at %d shards (budget 1); %.1f per run", perHop, shards, avg)
			}
			if n := topo.Hosts[0].Sim().StaleDrops(); n != 0 {
				t.Fatalf("correct sharded run counted %d stale drops, want 0", n)
			}
		})
	}
}

// TestBorrowedHopAllocations is the same guard for payloads that carry no
// stamp at all — what every transport without an arena sends, and what the
// repository benchmark's fabric workloads run on. Host.Send borrows the
// bytes instead of copying them, at every shard count: a flood that resends
// the same eight buffers must allocate no payload-sized memory at injection
// and stay within the ≤1 alloc/hop budget, and the only payload allocation
// left in the fabric — a trim — must hold exactly the kept prefix and leave
// the sender's buffer as it was.
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

	t.Run("trim copies the kept prefix", func(t *testing.T) {
		sim := NewSim()
		const target = 400
		star := NewStar(sim, 3, LinkConfig{Bandwidth: Mbps(10), Delay: 0},
			QueueConfig{CapacityBytes: 3000, HighCapacityBytes: 1 << 20, Mode: TrimOverflow, TrimTarget: target})
		payload := gradPayload(t, 512)
		orig := append([]byte(nil), payload...)
		keep := wire.TrimLen(payload, target-wire.NetOverhead)
		trimmed := 0
		star.Hosts[2].Handler = func(p *Packet) {
			if !p.Trimmed {
				return
			}
			trimmed++
			if len(p.Payload) != keep || cap(p.Payload) != keep {
				t.Errorf("trimmed payload len %d cap %d, want both %d (TrimLen)", len(p.Payload), cap(p.Payload), keep)
			}
		}
		for i := 0; i < 20; i++ {
			for s := 0; s < 2; s++ {
				star.Hosts[s].Send(&Packet{Dst: 2, Size: len(payload) + wire.NetOverhead, Payload: payload})
			}
		}
		sim.Run()
		if trimmed == 0 || keep >= len(payload) {
			t.Fatalf("trimmed %d packets to %d of %d bytes: the scenario trims nothing", trimmed, keep, len(payload))
		}
		if !bytes.Equal(payload, orig) {
			t.Fatal("a trim wrote the borrowed payload")
		}
	})
}
