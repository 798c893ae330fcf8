// Fabric fast-path benchmarks (DESIGN.md §11): the timer-wheel
// scheduler, the typed-event dispatch, and the pooled packet records.
// `scripts/check.sh -bench` smoke-runs them under -race; measured
// comparisons come from `go run ./benchmark`, and
// TestFabricHopAllocations in internal/netsim pins the hard per-hop
// allocation budget.
package trimgrad

import (
	"fmt"
	"runtime"
	"testing"

	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

// fabricStar builds the 4-host star every hop benchmark runs over, with
// sink handlers so delivered packets are consumed and recycled.
func fabricStar(sim *netsim.Sim) *netsim.Topology {
	link := netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: netsim.Microsecond}
	star := netsim.NewStar(sim, 4, link, netsim.QueueConfig{})
	for _, h := range star.Hosts {
		h.Handler = func(*netsim.Packet) {}
	}
	return star
}

// BenchmarkFabricHop measures the steady-state cost of one simulated
// packet crossing the fabric (two hops: host→switch→host) on the fast
// path: Sim.NewPacket records recycled on delivery, typed events
// dispatched without closures; events/hop counts the events that fired
// (Processed) per hop. There is one event order (ties break by
// causal key on a plain Sim and on an Engine alike), so the two arms
// measure the same scheduler: "pooled" on a plain Sim with no payload,
// "borrowed-sharded" through a 1-shard Engine with a payload on board.
// "pooled" figures quoted from before PR 16 used the cheaper
// schedule-order tie-break and are not comparable.
func BenchmarkFabricHop(b *testing.B) {
	const pkts = 256
	const hops = pkts * 2
	b.Run("pooled", func(b *testing.B) {
		sim := netsim.NewSim()
		star := fabricStar(sim)
		send := func() {
			for j := 0; j < pkts; j++ {
				pkt := sim.NewPacket()
				pkt.Dst = star.Hosts[(j+1)%4].ID()
				pkt.Size = 1500
				star.Hosts[j%4].Send(pkt)
			}
			sim.Run()
		}
		send() // warm the event, packet, and queue pools
		b.ReportAllocs()
		events := sim.Processed
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			send()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/hop")
		b.ReportMetric(float64(sim.Processed-events)/float64(b.N*hops), "events/hop")
	})
	// The path the repository benchmark's fabric workloads take: a sharded
	// engine carrying unstamped payloads that the sender keeps and resends.
	// Host.Send borrows them, so allocs/hop must match the payload-free arm
	// above.
	b.Run("borrowed-sharded", func(b *testing.B) {
		sim := netsim.NewSim()
		star := fabricStar(sim)
		eng, err := netsim.ShardTopology(star, 1)
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		payload := make([]byte, 1500-wire.NetOverhead)
		send := func() {
			for j := 0; j < pkts; j++ {
				pkt := sim.NewPacket()
				pkt.Dst = star.Hosts[(j+1)%4].ID()
				pkt.Size = 1500
				pkt.Payload = payload
				star.Hosts[j%4].Send(pkt)
			}
			eng.Run()
		}
		send()
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		events := eng.Processed()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			send()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*hops), "allocs/hop")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/hop")
		b.ReportMetric(float64(eng.Processed()-events)/float64(b.N*hops), "events/hop")
	})
}

// BenchmarkFabricFatTree measures the pooled fast path on the multi-tier
// fabric: a k=4 fat tree (16 hosts, 20 switches) under a full incast into
// host 15, every sender a distinct ECMP flow so the load spreads across
// the aggregation and core tiers. The per-hop metric divides by the exact
// hop count of each flow's hashed path (PathFor), so it stays comparable
// to BenchmarkFabricHop's star numbers as routing depth grows; events/hop
// is Processed per hop.
func BenchmarkFabricFatTree(b *testing.B) {
	const pktsPerSender = 16
	sim := netsim.NewSim()
	topo, err := netsim.FabricSpec{
		Kind:     "fattree",
		K:        4,
		Link:     netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: netsim.Microsecond},
		Queue:    netsim.QueueConfig{CapacityBytes: 1 << 20},
		ECMPSeed: 7,
	}.Build(sim)
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range topo.Hosts {
		h.Handler = func(*netsim.Packet) {}
	}
	sink := topo.Hosts[15].ID()
	hops := 0
	for s := 0; s < 15; s++ {
		hops += pktsPerSender * (len(topo.PathFor(netsim.NodeID(s), sink, uint64(s+1))) - 1)
	}
	send := func() {
		for j := 0; j < pktsPerSender; j++ {
			for s := 0; s < 15; s++ {
				pkt := sim.NewPacket()
				pkt.Dst = sink
				pkt.Size = 1500
				pkt.FlowID = uint64(s + 1)
				topo.Hosts[s].Send(pkt)
			}
		}
		sim.Run()
	}
	send() // warm the event, packet, and queue pools
	b.ReportAllocs()
	events := sim.Processed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/hop")
	b.ReportMetric(float64(sim.Processed-events)/float64(b.N*hops), "events/hop")
}

// BenchmarkShardFabric measures the partitioned engine on the k=4 fat
// tree under an all-to-all burst — every host fires at rotating remote
// peers, so most packets cross rack (and therefore shard) boundaries.
// The 1/2/4-shard runs produce bit-identical simulations (pinned by
// TestShardTrafficDifferential); this benchmark records what that
// parallelism buys in wall clock. On a single-core runner the ratio is
// ≈1; the BENCH trajectory on multi-core boxes carries the speedup
// claim.
func BenchmarkShardFabric(b *testing.B) {
	const pktsPerHost = 16
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sim := netsim.NewSim()
			topo, err := netsim.FabricSpec{
				Kind:     "fattree",
				K:        4,
				Link:     netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: netsim.Microsecond},
				Queue:    netsim.QueueConfig{CapacityBytes: 1 << 20},
				ECMPSeed: 7,
			}.Build(sim)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := netsim.ShardTopology(topo, shards)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			for _, h := range topo.Hosts {
				h.Handler = func(*netsim.Packet) {}
			}
			n := len(topo.Hosts)
			send := func() {
				for j := 0; j < pktsPerHost; j++ {
					for s := 0; s < n; s++ {
						// Rotate destinations through remote pods so the
						// traffic exercises the cross-shard mailboxes.
						dst := (s + 4 + j) % n
						// Pooled packets come from the sending host's own
						// shard so recycling stays shard-local.
						pkt := topo.Hosts[s].Sim().NewPacket()
						pkt.Dst = topo.Hosts[dst].ID()
						pkt.Size = 1500
						pkt.FlowID = uint64(s*n + dst + 1)
						topo.Hosts[s].Send(pkt)
					}
				}
				eng.Run()
			}
			send() // warm pools on every shard
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send()
			}
			hops := b.N * pktsPerHost * n
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/pkt")
		})
	}
}

// BenchmarkFabricWheel measures raw scheduler throughput — schedule +
// dispatch cost per event — with no network attached. spread scatters
// the events over 2 ms, every level of the timer wheel (same-slot,
// in-window, overflow) and about half an event per 256 ns tick; lockstep
// puts 128 events on one shared timestamp in every other tick, the shape
// of senders in an incast, so it prices ordering a deep tick, and
// lockstep-512 does the same with 512, the depth of an incast's deepest
// ticks, which the radix path orders.
func BenchmarkFabricWheel(b *testing.B) {
	const events = 4096
	rng := xrand.New(42)
	shapes := []struct {
		name  string
		delay func(i int) netsim.Time
	}{
		{"spread", func(int) netsim.Time { return netsim.Time(rng.Uint64() % uint64(2*netsim.Millisecond)) }},
		{"lockstep", func(i int) netsim.Time { return netsim.Time(i/128) * 512 }},
		{"lockstep-512", func(i int) netsim.Time { return netsim.Time(i/512) * 512 }},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			delays := make([]netsim.Time, events)
			for i := range delays {
				delays[i] = shape.delay(i)
			}
			fn := func() {}
			sim := netsim.NewSim()
			run := func() {
				for _, d := range delays {
					sim.After(d, fn)
				}
				sim.Run()
			}
			run() // warm the event pool so iterations measure steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}

// BenchmarkFabricPack measures PackRow: one allocation per meta/data
// buffer, the sender-side cost the transport pays per message.
func BenchmarkFabricPack(b *testing.B) {
	row := benchRow(1 << 13)
	c := quant.MustNew(quant.Params{Scheme: quant.RHT})
	enc, err := c.Encode(row, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wire.PackRow(1, 2, 3, enc); err != nil {
			b.Fatal(err)
		}
	}
}
