package netsim

import (
	"bytes"
	"testing"

	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

func fastLink() LinkConfig {
	return LinkConfig{Bandwidth: Gbps(100), Delay: Microsecond}
}

// buildGradPacket builds a real trimgrad data packet wrapped in a sim
// Packet, so switches can trim it.
func buildGradPacket(t *testing.T, dst NodeID, n int) *Packet {
	t.Helper()
	r := xrand.New(42)
	row := make([]float32, n)
	for i := range row {
		row[i] = float32(r.NormFloat64())
	}
	c := quant.MustNew(quant.Params{Scheme: quant.Sign})
	enc, err := c.Encode(row, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, data, err := wire.PackRow(1, 1, 0, enc)
	if err != nil {
		t.Fatal(err)
	}
	return &Packet{
		Dst:     dst,
		Size:    len(data[0]) + wire.NetOverhead,
		Payload: data[0],
		Kind:    "data",
	}
}

func TestPointToPointDelivery(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, fastLink(), QueueConfig{})
	var got *Packet
	var at Time
	star.Hosts[1].Handler = func(p *Packet) { got, at = p, sim.Now() }
	pkt := &Packet{Dst: 1, Size: 1500, Kind: "test"}
	star.Hosts[0].Send(pkt)
	sim.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.Src != 0 {
		t.Errorf("src = %d", got.Src)
	}
	// Two serializations (host NIC + switch port) and two propagation
	// delays: 2·(1500·8/100G) + 2·1µs = 2·120ns + 2000ns = 2240ns.
	want := Time(2240)
	if at != want {
		t.Errorf("delivery at %v, want %v", at, want)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 10 packets of 1250 bytes at 1 Gbps = 10 µs each → last arrives
	// after ≈ 10·10µs (+ propagation, + second hop).
	sim := NewSim()
	link := LinkConfig{Bandwidth: Gbps(1), Delay: 0}
	star := NewStar(sim, 2, link, QueueConfig{CapacityBytes: 1 << 20})
	var last Time
	n := 0
	star.Hosts[1].Handler = func(p *Packet) { last = sim.Now(); n++ }
	for i := 0; i < 10; i++ {
		star.Hosts[0].Send(&Packet{Dst: 1, Size: 1250})
	}
	sim.Run()
	if n != 10 {
		t.Fatalf("delivered %d/10", n)
	}
	// Host NIC serializes packets back to back: packet i departs host at
	// (i+1)·10µs, then one more 10µs serialization at the switch.
	want := Time(11 * 10 * Microsecond)
	if last != want {
		t.Errorf("last delivery %v, want %v", last, want)
	}
}

func TestDropTailOverflow(t *testing.T) {
	sim := NewSim()
	// Tiny switch buffer: 3000 bytes ≈ 2 MTU packets.
	q := QueueConfig{CapacityBytes: 3000, Mode: DropTail}
	star := NewStar(sim, 3, LinkConfig{Bandwidth: Mbps(10), Delay: 0}, q)
	delivered := 0
	star.Hosts[2].Handler = func(p *Packet) { delivered++ }
	// Two senders blast 20 packets each instantly into a 10 Mbps fabric.
	for i := 0; i < 20; i++ {
		star.Hosts[0].Send(&Packet{Dst: 2, Size: 1500})
		star.Hosts[1].Send(&Packet{Dst: 2, Size: 1500})
	}
	sim.Run()
	drops := star.Tier(TierEdge)[0].Port(2).Stats.Dropped
	if drops == 0 {
		t.Fatal("expected drops at the switch")
	}
	if delivered+drops != 40 {
		t.Fatalf("delivered %d + dropped %d != 40", delivered, drops)
	}
}

func TestTrimOverflowTrimsGradients(t *testing.T) {
	sim := NewSim()
	q := QueueConfig{CapacityBytes: 3000, Mode: TrimOverflow}
	star := NewStar(sim, 3, LinkConfig{Bandwidth: Mbps(10), Delay: 0}, q)
	var full, trimmed int
	star.Hosts[2].Handler = func(p *Packet) {
		if p.Trimmed {
			trimmed++
			if p.Prio != PrioHigh {
				t.Error("trimmed packet should be high priority")
			}
			if _, err := wire.ParseDataPacket(p.Payload); err != nil {
				t.Errorf("trimmed payload unparseable: %v", err)
			}
		} else {
			full++
		}
	}
	for i := 0; i < 20; i++ {
		star.Hosts[0].Send(buildGradPacket(t, 2, 300))
		star.Hosts[1].Send(buildGradPacket(t, 2, 300))
	}
	sim.Run()
	st := star.Tier(TierEdge)[0].Port(2).Stats
	if st.Trimmed == 0 {
		t.Fatal("expected trimming at the switch")
	}
	if full+trimmed+st.Dropped != 40 {
		t.Fatalf("full %d + trimmed %d + dropped %d != 40", full, trimmed, st.Dropped)
	}
	if trimmed == 0 {
		t.Fatal("no trimmed packets arrived")
	}
	// Trimming-mode drops should be far fewer than the drop-mode case
	// with identical load (every gradient packet is trimmable).
	if st.Dropped > 5 {
		t.Errorf("%d drops despite trimming", st.Dropped)
	}
}

// TestTrimThatDropsCopiesNothing: when the trimmed packet would not fit
// the high queue either, the port counts the trim and drops the packet at
// its trimmed size without copying the payload or touching the sender's
// bytes.
func TestTrimThatDropsCopiesNothing(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, fastLink(), QueueConfig{CapacityBytes: 1, HighCapacityBytes: 1, Mode: TrimOverflow})
	port := star.Tier(TierEdge)[0].Port(1)
	pkt := buildGradPacket(t, 1, 300)
	full, sent := pkt.Size, bytes.Clone(pkt.Payload)
	port.Enqueue(pkt)
	want := PortStats{Trimmed: 1, Dropped: 1, DroppedBytes: wire.TrimLen(sent, 0) + wire.NetOverhead}
	if port.Stats != want {
		t.Fatalf("stats %+v, want %+v", port.Stats, want)
	}
	if !bytes.Equal(pkt.Payload, sent) || pkt.Trimmed {
		t.Fatal("a dropped trim wrote or replaced the payload")
	}
	if avg := testing.AllocsPerRun(10, func() { pkt.Size = full; port.Enqueue(pkt) }); avg != 0 {
		t.Fatalf("a trim that ends in a drop allocated %.1f times", avg)
	}
}

func TestOpaqueTrafficCannotBeTrimmed(t *testing.T) {
	sim := NewSim()
	q := QueueConfig{CapacityBytes: 3000, Mode: TrimOverflow}
	star := NewStar(sim, 3, LinkConfig{Bandwidth: Mbps(10), Delay: 0}, q)
	for i := 0; i < 20; i++ {
		star.Hosts[0].Send(&Packet{Dst: 2, Size: 1500, Kind: "cross"})
		star.Hosts[1].Send(&Packet{Dst: 2, Size: 1500, Kind: "cross"})
	}
	sim.Run()
	st := star.Tier(TierEdge)[0].Port(2).Stats
	if st.Trimmed != 0 {
		t.Error("opaque packets must not be trimmed")
	}
	if st.Dropped == 0 {
		t.Error("opaque overflow should drop")
	}
}

func TestMetaPacketsNeverTrimmed(t *testing.T) {
	sim := NewSim()
	q := QueueConfig{CapacityBytes: 3000, HighCapacityBytes: 3000, Mode: TrimOverflow}
	star := NewStar(sim, 3, LinkConfig{Bandwidth: Mbps(1), Delay: 0}, q)
	meta := wire.BuildMetaPacket(wire.Header{Flow: 1}, 1, 100, 2.0)
	deliveredMeta := 0
	star.Hosts[2].Handler = func(p *Packet) {
		if p.Kind == "meta" {
			if p.Trimmed {
				t.Error("metadata packet was trimmed")
			}
			deliveredMeta++
		}
	}
	// Congest the output with bulk from host 1 while host 0 sends metas.
	for i := 0; i < 20; i++ {
		star.Hosts[1].Send(&Packet{Dst: 2, Size: 1500, Kind: "bulk"})
	}
	for i := 0; i < 5; i++ {
		star.Hosts[0].Send(&Packet{
			Dst: 2, Size: len(meta) + wire.NetOverhead,
			Payload: append([]byte(nil), meta...),
			Kind:    "meta", Prio: PrioHigh,
		})
	}
	sim.Run()
	if deliveredMeta == 0 {
		t.Fatal("no metadata delivered")
	}
}

func TestECNMarking(t *testing.T) {
	sim := NewSim()
	q := QueueConfig{CapacityBytes: 1 << 20, ECNThresholdBytes: 3000}
	star := NewStar(sim, 3, LinkConfig{Bandwidth: Mbps(10), Delay: 0}, q)
	marked := 0
	star.Hosts[2].Handler = func(p *Packet) {
		if p.ECE {
			marked++
		}
	}
	for i := 0; i < 20; i++ {
		star.Hosts[0].Send(&Packet{Dst: 2, Size: 1500})
		star.Hosts[1].Send(&Packet{Dst: 2, Size: 1500})
	}
	sim.Run()
	if marked == 0 {
		t.Fatal("expected ECN marks")
	}
	if star.Tier(TierEdge)[0].Port(2).Stats.ECNMarked != marked {
		t.Error("mark accounting mismatch")
	}
}

func TestHighPriorityOvertakes(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, LinkConfig{Bandwidth: Mbps(10), Delay: 0},
		QueueConfig{CapacityBytes: 1 << 20})
	var order []string
	star.Hosts[1].Handler = func(p *Packet) { order = append(order, p.Kind) }
	// Fill the switch queue with bulk, then send one high-priority packet.
	// The host NIC serializes in order, but at the switch the high-prio
	// packet overtakes the queued bulk.
	for i := 0; i < 10; i++ {
		star.Hosts[0].Send(&Packet{Dst: 1, Size: 1500, Kind: "bulk"})
	}
	star.Hosts[0].Send(&Packet{Dst: 1, Size: 100, Kind: "urgent", Prio: PrioHigh})
	sim.Run()
	if len(order) != 11 {
		t.Fatalf("delivered %d", len(order))
	}
	pos := -1
	for i, k := range order {
		if k == "urgent" {
			pos = i
		}
	}
	if pos < 0 || pos >= 10 {
		t.Errorf("urgent packet arrived at position %d, want overtaking", pos)
	}
}

func TestDumbbellRouting(t *testing.T) {
	sim := NewSim()
	d := NewDumbbell(sim, 2, 2, fastLink(), fastLink(), QueueConfig{})
	got := map[NodeID]int{}
	for _, h := range d.Hosts {
		h := h
		h.Handler = func(p *Packet) { got[h.ID()]++ }
	}
	// Left 0 → right 2 crosses the bottleneck; right 3 → left 1 too.
	d.Hosts[0].Send(&Packet{Dst: 2, Size: 500})
	d.Hosts[3].Send(&Packet{Dst: 1, Size: 500})
	sim.Run()
	if got[2] != 1 || got[1] != 1 {
		t.Fatalf("deliveries: %v", got)
	}
	if sw := d.Tier(TierEdge); sw[0].RouteMisses+sw[1].RouteMisses != 0 {
		t.Fatal("route misses")
	}
}

func TestRingRouting(t *testing.T) {
	sim := NewSim()
	r := NewRing(sim, 5, fastLink(), fastLink(), QueueConfig{})
	got := map[NodeID]int{}
	for _, h := range r.Hosts {
		h := h
		h.Handler = func(p *Packet) { got[h.ID()]++ }
	}
	// Every host sends to every other host.
	for i, h := range r.Hosts {
		for j := range r.Hosts {
			if i != j {
				h.Send(&Packet{Dst: NodeID(j), Size: 200})
			}
		}
	}
	sim.Run()
	for _, h := range r.Hosts {
		if got[h.ID()] != 4 {
			t.Fatalf("host %d received %d, want 4", h.ID(), got[h.ID()])
		}
	}
	for _, sw := range r.Switches() {
		if sw.RouteMisses != 0 {
			t.Fatal("route misses in ring")
		}
	}
}

func TestRouteMissCounted(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, fastLink(), QueueConfig{})
	star.Hosts[0].Send(&Packet{Dst: 99, Size: 100})
	sim.Run()
	if star.Tier(TierEdge)[0].RouteMisses != 1 {
		t.Fatalf("route misses = %d", star.Tier(TierEdge)[0].RouteMisses)
	}
}

// TestForwardingTableFollowsRouteChanges pins the lazily built forwarding
// table against its configuration: routes and links installed after
// traffic has already flowed (so after the table was built) take effect on
// the very next packet, an ECMP set keeps its hash-bucket order across a
// rebuild, a next hop with no link behind it is a miss only for the flows
// that hash to it, and every miss — unknown destination, id below or above
// the table's range, unconnected next hop — still counts in RouteMisses.
func TestForwardingTableFollowsRouteChanges(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim)
	a, b, c := net.AddHost(1), net.AddHost(2), net.AddHost(3)
	s1 := net.AddSwitch(SwitchIDBase, QueueConfig{})
	s2 := net.AddSwitch(SwitchIDBase+1, QueueConfig{})
	s3 := net.AddSwitch(SwitchIDBase+2, QueueConfig{})
	net.Connect(a.ID(), s1.ID(), fastLink())
	net.Connect(b.ID(), s2.ID(), fastLink())
	net.Connect(s1.ID(), s2.ID(), fastLink())
	got := map[NodeID]int{}
	b.Handler = func(*Packet) { got[b.ID()]++ }
	c.Handler = func(*Packet) { got[c.ID()]++ }
	send := func(dst NodeID, flow uint64) {
		a.Send(&Packet{Dst: dst, Size: 100, FlowID: flow})
		sim.Run()
	}

	// No route to host 2 yet: a miss, which also builds s1's table.
	send(2, 0)
	if s1.RouteMisses != 1 || got[2] != 0 {
		t.Fatalf("before SetRoute: misses %d, delivered %d; want 1, 0", s1.RouteMisses, got[2])
	}
	// SetRoute after traffic started.
	s1.SetRoute(2, s2.ID())
	send(2, 0)
	if s1.RouteMisses != 1 || got[2] != 1 {
		t.Fatalf("after SetRoute: misses %d, delivered %d; want 1, 1", s1.RouteMisses, got[2])
	}
	// Ids outside the table's range on either side, and an unknown id in it.
	for _, dst := range []NodeID{-7, 0, 500, SwitchIDBase + 900} {
		send(dst, 0)
	}
	if s1.RouteMisses != 5 {
		t.Fatalf("out-of-range and unknown destinations: misses %d, want 5", s1.RouteMisses)
	}

	// AddRoute after traffic started: host 3 becomes reachable over two
	// equal-cost hops, the second of which has no link yet. Flows hashing
	// to the first arrive; flows hashing to the second miss.
	net.Connect(c.ID(), s2.ID(), fastLink())
	s1.AddRoute(3, s2.ID())
	s1.AddRoute(3, s3.ID())
	const flows = 64
	bucket := func(flow uint64) uint64 { return ecmpHash(0, s1.ID(), a.ID(), 3, flow) % 2 }
	viaS2 := 0
	for f := uint64(0); f < flows; f++ {
		if bucket(f) == 0 {
			viaS2++
		}
		send(3, f)
	}
	if viaS2 == 0 || viaS2 == flows {
		t.Fatalf("degenerate hash split %d/%d", viaS2, flows)
	}
	if got[3] != viaS2 || s1.RouteMisses != 5+flows-viaS2 {
		t.Fatalf("half-wired ECMP set: delivered %d (want %d), misses %d (want %d)",
			got[3], viaS2, s1.RouteMisses, 5+flows-viaS2)
	}
	if p := (&Topology{Net: net}).PathFor(a.ID(), 3, 0); (p != nil) != (bucket(0) == 0) {
		t.Fatalf("PathFor = %v disagrees with the forwarding decision (bucket %d)", p, bucket(0))
	}

	// NewLink after traffic started: wiring s3 completes the set, bucket
	// order unchanged, so every flow now arrives.
	if err := net.NewLink(s1.ID(), s3.ID(), fastLink()); err != nil {
		t.Fatal(err)
	}
	if err := net.NewLink(s3.ID(), s2.ID(), fastLink()); err != nil {
		t.Fatal(err)
	}
	s3.SetRoute(3, s2.ID())
	misses := s1.RouteMisses
	got[3] = 0
	for f := uint64(0); f < flows; f++ {
		send(3, f)
	}
	if got[3] != flows || s1.RouteMisses != misses || s3.RouteMisses != 0 {
		t.Fatalf("after NewLink: delivered %d/%d, new misses s1 %d s3 %d",
			got[3], flows, s1.RouteMisses-misses, s3.RouteMisses)
	}
	if n := s3.Port(s2.ID()).Stats.Transmitted; n != flows-viaS2 {
		t.Fatalf("s3 carried %d flows, want the %d that hash to the second bucket", n, flows-viaS2)
	}
}

// TestPortQueueReleasesDequeued pins the head-indexed queue's two promises:
// a drained port's backing arrays hold no *Packet (the record may be
// recycled or collected the moment it leaves), and steady traffic reuses
// one array instead of regrowing behind a sliding window.
func TestPortQueueReleasesDequeued(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, LinkConfig{Bandwidth: Mbps(100), Delay: 0},
		QueueConfig{CapacityBytes: 1 << 20})
	port := star.Tier(TierEdge)[0].Port(1)
	star.Hosts[1].Handler = func(*Packet) {}
	burst := func(n int) {
		for i := 0; i < n; i++ {
			prio := PrioNormal
			if i%3 == 0 {
				prio = PrioHigh
			}
			star.Hosts[0].Send(&Packet{Dst: 1, Size: 200, Prio: prio})
		}
		sim.Run()
	}
	burst(100)
	caps := [2]int{cap(port.q[PrioNormal].pkts), cap(port.q[PrioHigh].pkts)}
	for round := 0; round < 50; round++ {
		burst(100)
	}
	for prio := range port.q {
		q := &port.q[prio]
		if !q.empty() || q.head != 0 || len(q.pkts) != 0 {
			t.Fatalf("prio %d: drained queue not rewound: head %d len %d", prio, q.head, len(q.pkts))
		}
		for i, p := range q.pkts[:cap(q.pkts)] {
			if p != nil {
				t.Fatalf("prio %d: slot %d of the drained queue still holds a packet", prio, i)
			}
		}
		if cap(q.pkts) != caps[prio] {
			t.Fatalf("prio %d: array regrew from %d to %d slots under a repeating load", prio, caps[prio], cap(q.pkts))
		}
	}

	// A queue that never drains — one in for every one out — must settle on
	// one array too: pushes reclaim the dequeued front instead of growing.
	var q pktQueue
	for i := 0; i < 40; i++ {
		q.push(&Packet{Seq: uint64(i)})
	}
	next, settled := uint64(0), 0
	for i := 40; i < 10000; i++ {
		if got := q.pop().Seq; got != next {
			t.Fatalf("popped seq %d, want %d", got, next)
		}
		next++
		q.push(&Packet{Seq: uint64(i)})
		if i == 1000 {
			settled = cap(q.pkts)
		}
	}
	if cap(q.pkts) != settled || settled > 4*40 {
		t.Fatalf("a 40-deep queue holds %d slots after 1000 cycles and %d after 10000; want one array of at most 160", settled, cap(q.pkts))
	}
	if n := len(q.queued()); n != 40 {
		t.Fatalf("queued %d, want 40", n)
	}
	for _, p := range q.pkts[:q.head] {
		if p != nil {
			t.Fatal("a dequeued slot still holds its packet")
		}
	}
}

func TestCrossTrafficPoisson(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, fastLink(), QueueConfig{CapacityBytes: 1 << 20})
	n := 0
	star.Hosts[1].Handler = func(p *Packet) { n++ }
	ct := NewCrossTraffic(star.Hosts[0], 1, 1500, 1e6, 7) // 1M pkt/s
	ct.Start()
	sim.RunUntil(10 * Millisecond)
	ct.Stop()
	sim.Run()
	// Expect ≈ rate·time = 10000 packets, allow ±20%.
	if n < 8000 || n > 12000 {
		t.Fatalf("cross traffic delivered %d, want ≈10000", n)
	}
}

func TestFCTRecorder(t *testing.T) {
	f := NewFCTRecorder()
	if f.Percentile(0.5) != 0 || f.Max() != 0 {
		t.Fatal("empty recorder should report zeros")
	}
	for i := 1; i <= 100; i++ {
		f.FlowStarted(uint64(i), 0)
		f.FlowFinished(uint64(i), Time(i))
	}
	f.FlowFinished(999, 5) // unknown flow ignored
	if f.Count() != 100 {
		t.Fatalf("count = %d", f.Count())
	}
	if got := f.Percentile(0.99); got != 99 {
		t.Errorf("p99 = %v", got)
	}
	if got := f.Percentile(1); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := f.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := f.Max(); got != 100 {
		t.Errorf("max = %v", got)
	}
}

func TestMaxQueueDepthTracked(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, LinkConfig{Bandwidth: Mbps(10), Delay: 0},
		QueueConfig{CapacityBytes: 1 << 20})
	for i := 0; i < 10; i++ {
		star.Hosts[0].Send(&Packet{Dst: 1, Size: 1000})
	}
	sim.Run()
	if star.Tier(TierEdge)[0].Port(1).Stats.MaxQueueBytes == 0 {
		t.Error("max queue depth not tracked")
	}
}
