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

// record returns a record of sim's pool holding p's fields: the tests'
// stand-in for a &Packet{…} literal, which Host.Send refuses.
func record(sim *Sim, p Packet) *Packet {
	r := sim.NewPacket()
	p.home = sim
	*r = p
	return r
}

// stampedRecord is record stamped as Host.Send stamps it, for a test that
// hands it to a port or trims it without a Send.
func stampedRecord(sim *Sim, p Packet) *Packet {
	r := record(sim, p)
	r.stamp()
	return r
}

// isCut reports whether a switch cut p's payload, told by its length
// (wire.Header.IsCut), as a receiver tells it.
func isCut(p *Packet) bool {
	h, err := wire.ParseHeader(p.Payload)
	return err == nil && h.IsCut(len(p.Payload))
}

// buildGradPacket builds a real trimgrad data packet wrapped in a record
// of sim's pool, so switches can trim it.
func buildGradPacket(t *testing.T, sim *Sim, dst NodeID, n int) *Packet {
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
	return stampedRecord(sim, Packet{Dst: dst, Size: len(data[0]) + wire.NetOverhead, Payload: data[0]})
}

func TestPointToPointDelivery(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, fastLink(), QueueConfig{})
	var got []NodeID // the sources, read inside the handler: the record is recycled after it
	var at Time
	star.Hosts[1].Handler = func(p *Packet) { got, at = append(got, p.Src), sim.Now() }
	star.Hosts[0].Send(record(sim, Packet{Dst: 1, Size: 1500}))
	sim.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if got[0] != 0 {
		t.Errorf("src = %d", got[0])
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
		star.Hosts[0].Send(record(sim, Packet{Dst: 1, Size: 1250}))
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

// TestSerializationMatchesDivision pins Port.serialize, the tabled
// serialization time, to size·8·Second/Bandwidth at every size up to one
// past a full frame and a few jumbo ones, on every bandwidth the repo
// configures. Sizes alternate on one port, so a stale per-port cache would
// show.
func TestSerializationMatchesDivision(t *testing.T) {
	bws := []int64{Gbps(10), Gbps(5), Gbps(2), Mbps(500)}
	// The leaf–spine uplinks: E13/E14's 4:1 and cmd/netsim's default 1:1.
	for _, oversub := range []float64{4, 1} {
		spec := FabricSpec{Kind: "leafspine", Leaves: 4, Spines: 2, HostsPerLeaf: 4, Oversub: oversub, Link: LinkConfig{Bandwidth: Gbps(10)}}
		up, err := spec.leafUplink()
		if err != nil {
			t.Fatal(err)
		}
		bws = append(bws, up.Bandwidth)
	}
	var sizes []int
	for size := 0; size <= wire.MTU+wire.NetOverhead+1; size++ {
		sizes = append(sizes, size)
	}
	sizes = append(sizes, 4096, 9000, 64<<10, 1<<20)
	sim := NewSim()
	peer := &Host{id: 1, sim: sim}
	for _, bw := range bws {
		p := newPort(sim, 0, peer, LinkConfig{Bandwidth: bw}, QueueConfig{})
		check := func(size int) {
			if got, want := p.serialize(size), Time(int64(size)*8*int64(Second)/bw); got != want {
				t.Fatalf("bandwidth %d: serialize(%d) = %d, want %d", bw, size, got, want)
			}
		}
		for i, size := range sizes {
			check(size)
			check(sizes[len(sizes)-1-i])
		}
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
		star.Hosts[0].Send(record(sim, Packet{Dst: 2, Size: 1500}))
		star.Hosts[1].Send(record(sim, Packet{Dst: 2, Size: 1500}))
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
		if isCut(p) {
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
		star.Hosts[0].Send(buildGradPacket(t, sim, 2, 300))
		star.Hosts[1].Send(buildGradPacket(t, sim, 2, 300))
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
// bytes. The dropped record goes back to the pool, so each send takes it
// again.
func TestTrimThatDropsCopiesNothing(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, fastLink(), QueueConfig{CapacityBytes: 1, HighCapacityBytes: 1, Mode: TrimOverflow})
	port := star.Tier(TierEdge)[0].Port(1)
	pkt := buildGradPacket(t, sim, 1, 300)
	tmpl, sent := *pkt, bytes.Clone(pkt.Payload)
	port.Enqueue(pkt)
	want := PortStats{Trimmed: 1, Dropped: 1, DroppedBytes: len(wire.Trim(sent, 0)) + wire.NetOverhead}
	if port.Stats != want {
		t.Fatalf("stats %+v, want %+v", port.Stats, want)
	}
	if !bytes.Equal(tmpl.Payload, sent) {
		t.Fatal("a dropped trim wrote the payload")
	}
	if avg := testing.AllocsPerRun(10, func() { port.Enqueue(record(sim, tmpl)) }); avg != 0 {
		t.Fatalf("a trim that ends in a drop allocated %.1f times", avg)
	}
}

func TestOpaqueTrafficCannotBeTrimmed(t *testing.T) {
	sim := NewSim()
	q := QueueConfig{CapacityBytes: 3000, Mode: TrimOverflow}
	star := NewStar(sim, 3, LinkConfig{Bandwidth: Mbps(10), Delay: 0}, q)
	for i := 0; i < 20; i++ {
		star.Hosts[0].Send(record(sim, Packet{Dst: 2, Size: 1500}))
		star.Hosts[1].Send(record(sim, Packet{Dst: 2, Size: 1500}))
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
		if p.Payload != nil { // the metas; bulk is opaque
			if isCut(p) {
				t.Error("metadata packet was trimmed")
			}
			deliveredMeta++
		}
	}
	// Congest the output with bulk from host 1 while host 0 sends metas.
	for i := 0; i < 20; i++ {
		star.Hosts[1].Send(record(sim, Packet{Dst: 2, Size: 1500}))
	}
	for i := 0; i < 5; i++ {
		star.Hosts[0].Send(record(sim, Packet{
			Dst: 2, Size: len(meta) + wire.NetOverhead,
			Payload: append([]byte(nil), meta...), Prio: PrioHigh,
		}))
	}
	sim.Run()
	if deliveredMeta == 0 {
		t.Fatal("no metadata delivered")
	}
}

func TestHighPriorityOvertakes(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, LinkConfig{Bandwidth: Mbps(10), Delay: 0},
		QueueConfig{CapacityBytes: 1 << 20})
	var order []Priority
	star.Hosts[1].Handler = func(p *Packet) { order = append(order, p.Prio) }
	// Fill the switch queue with bulk, then send one high-priority packet.
	// The host NIC serializes in order, but at the switch the high-prio
	// packet overtakes the queued bulk.
	for i := 0; i < 10; i++ {
		star.Hosts[0].Send(record(sim, Packet{Dst: 1, Size: 1500}))
	}
	star.Hosts[0].Send(record(sim, Packet{Dst: 1, Size: 100, Prio: PrioHigh}))
	sim.Run()
	if len(order) != 11 {
		t.Fatalf("delivered %d", len(order))
	}
	pos := -1
	for i, prio := range order {
		if prio == PrioHigh {
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
	d.Hosts[0].Send(record(sim, Packet{Dst: 2, Size: 500}))
	d.Hosts[3].Send(record(sim, Packet{Dst: 1, Size: 500}))
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
				h.Send(record(sim, Packet{Dst: NodeID(j), Size: 200}))
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

// TestRouteMissCounted: ids outside the forwarding table on either side,
// and a switch id inside it, are misses, counted and recycled.
func TestRouteMissCounted(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, fastLink(), QueueConfig{})
	dsts := []NodeID{-7, 99, SwitchIDBase, SwitchIDBase + 900}
	for _, dst := range dsts {
		star.Hosts[0].Send(record(sim, Packet{Dst: dst, Size: 100}))
	}
	sim.Run()
	if got := star.Tier(TierEdge)[0].RouteMisses; got != len(dsts) {
		t.Fatalf("route misses = %d, want %d", got, len(dsts))
	}
	if err := star.Net.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestPortQueueReleasesDequeued pins the linked FIFO's three promises over
// 10 000 push/pop cycles with SendRun places (run-flagged records) mixed
// in: records leave in the order they came, a popped record links nowhere
// (it may be recycled at once), and a drained queue references no record.
// The port half drives the same mix through a NIC: packets sent one by one
// and as runs arrive in send order, every FIFO drains empty, and the pool
// audits clean.
func TestPortQueueReleasesDequeued(t *testing.T) {
	sim := NewSim()
	rng := xrand.New(3)
	var q pktQueue
	var want []*Packet
	for i := 0; i < 10000; i++ {
		for k := rng.Intn(3); k >= 0; k-- {
			pkt := sim.NewPacket()
			pkt.Seq, pkt.run = uint64(i), i%7 == 0
			q.push(pkt)
			want = append(want, pkt)
		}
		for k := rng.Intn(4); k > 0 && !q.empty(); k-- {
			pkt := q.pop()
			if pkt != want[0] {
				t.Fatalf("cycle %d: popped seq %d, want %d", i, pkt.Seq, want[0].Seq)
			}
			if pkt.next != nil {
				t.Fatalf("cycle %d: a popped record still links to another", i)
			}
			want = want[1:]
			sim.releasePacket(pkt)
		}
		if q.n != len(want) {
			t.Fatalf("cycle %d: queue counts %d, holds %d", i, q.n, len(want))
		}
	}
	for !q.empty() {
		if q.pop() != want[0] {
			t.Fatal("drain left FIFO order")
		}
		want = want[1:]
	}
	if q != (pktQueue{}) {
		t.Fatalf("a drained queue still references a record: %+v", q)
	}

	sim = NewSim()
	star := NewStar(sim, 2, LinkConfig{Bandwidth: Mbps(100), Delay: 0}, QueueConfig{CapacityBytes: 1 << 20})
	var got []uint64
	star.Hosts[1].Handler = func(p *Packet) { got = append(got, p.Seq) }
	h, run := star.Hosts[0], [][]byte{make([]byte, 100), make([]byte, 200), make([]byte, 300)}
	seq := uint64(0)
	for burst := 0; burst < 50; burst++ {
		for j := 0; j < 12; j++ {
			if j%3 == 1 {
				h.SendRun(Packet{Dst: 1, Seq: seq}, run)
				seq += uint64(len(run))
				continue
			}
			pkt := sim.NewPacket()
			pkt.Dst, pkt.Size, pkt.Seq = 1, 200, seq
			h.Send(pkt)
			seq++
		}
		if r := h.uplink.runs; r == nil || r.live() == 0 {
			t.Fatal("no run queued as one entry")
		}
		sim.Run()
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("delivery %d carries seq %d: FIFO order broke", i, s)
		}
	}
	if len(got) != int(seq) {
		t.Fatalf("delivered %d of %d packets", len(got), seq)
	}
	for _, p := range append(star.Tier(TierEdge)[0].Ports(), h.uplink) {
		if p.q != [2]pktQueue{} {
			t.Fatalf("port %d->%d: drained FIFOs still reference records", p.owner, p.peer.ID())
		}
	}
	if err := star.Net.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestPooledListsAllocateNothing: a FIFO and a free list link their
// records, so pushing 10 000 records through a fresh FIFO, and releasing
// 10 000 onto an empty free list, grow no array.
func TestPooledListsAllocateNothing(t *testing.T) {
	const n = 10000
	sim := NewSim()
	recs := make([]*Packet, n)
	for i := range recs {
		recs[i] = sim.NewPacket()
	}
	fifo := func() {
		var q pktQueue
		for _, pkt := range recs {
			q.push(pkt)
		}
		for !q.empty() {
			q.pop()
		}
	}
	release := func() {
		sim.freePkt = pktQueue{}
		for _, pkt := range recs {
			sim.releasePacket(pkt)
		}
	}
	if avg := testing.AllocsPerRun(5, fifo); avg != 0 {
		t.Errorf("pushing %d records through a FIFO allocated %.0f times", n, avg)
	}
	if avg := testing.AllocsPerRun(5, release); avg != 0 {
		t.Errorf("releasing %d records onto a fresh free list allocated %.0f times", n, avg)
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
		star.Hosts[0].Send(record(sim, Packet{Dst: 1, Size: 1000}))
	}
	sim.Run()
	if star.Tier(TierEdge)[0].Port(1).Stats.MaxQueueBytes == 0 {
		t.Error("max queue depth not tracked")
	}
}

// TestPushAtSerializationEnd pushes a packet at exactly the instant a
// serialization with nothing queued behind it ends, from an event whose
// causal key sorts before the reserved tx-done key and from one whose key
// sorts after it. Before, the serialization is still in progress: the
// packet queues behind it and its tx-done event gets placed. After, the
// serialization has ended though no event marked it: the push counts it
// transmitted and starts the new packet at once. Both orders deliver both
// packets, and the counters balance at every step.
func TestPushAtSerializationEnd(t *testing.T) {
	for _, keyBelow := range []bool{true, false} {
		sim := NewSim()
		link := LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}
		star := NewStar(sim, 2, link, QueueConfig{})
		var got []Time
		star.Hosts[1].Handler = func(*Packet) { got = append(got, sim.Now()) }
		send := func() {
			pkt := sim.NewPacket()
			pkt.Dst, pkt.Size = star.Hosts[1].ID(), 1500
			star.Hosts[0].Send(pkt)
		}
		send()
		p := star.Hosts[0].Uplink()
		end, key := p.txAt, p.txKey
		if end != 1200 || p.txPlaced {
			t.Fatalf("first serialization: end %v, placed %v; want 1.2µs, unplaced", end, p.txPlaced)
		}
		pushed := false
		for i := 0; i < 16; i++ {
			sim.At(end, func() {
				if pushed || (sim.ctxKey < key) != keyBelow {
					return
				}
				pushed = true
				wantTx, wantBacklog := 0, 1
				if !keyBelow {
					wantTx, wantBacklog = 1, 0
				}
				if st := p.stats(); st.Transmitted != wantTx || p.Backlog() != wantBacklog {
					t.Errorf("key below %v, before the push: transmitted %d, backlog %d; want %d, %d",
						keyBelow, st.Transmitted, p.Backlog(), wantTx, wantBacklog)
				}
				send()
				if p.Stats.Transmitted != wantTx || p.Backlog() != 2-wantTx || p.txPlaced != keyBelow {
					t.Errorf("key below %v, after the push: transmitted %d, backlog %d, tx-done placed %v",
						keyBelow, p.Stats.Transmitted, p.Backlog(), p.txPlaced)
				}
			})
		}
		sim.Run()
		if !pushed {
			t.Fatalf("key below %v: no event on that side of the reserved key", keyBelow)
		}
		if len(got) != 2 || p.Stats.Transmitted != 2 || p.Stats.Enqueued != 2 || p.Backlog() != 0 {
			t.Fatalf("key below %v: deliveries at %v, transmitted %d of %d, backlog %d",
				keyBelow, got, p.Stats.Transmitted, p.Stats.Enqueued, p.Backlog())
		}
	}
}

// TestPushBehindZeroTimeSerialization: a serialization that takes no time
// ends at the instant it starts, under a key that may sort before the
// event starting it, so its tx-done event is always placed; a second push
// in the same event must queue behind it, as when the tx-done was an
// event like any other.
func TestPushBehindZeroTimeSerialization(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, LinkConfig{Bandwidth: Gbps(100), Delay: Microsecond}, QueueConfig{})
	p := star.Hosts[0].Uplink()
	delivered := 0
	star.Hosts[1].Handler = func(*Packet) { delivered++ }
	const rounds = 32
	for i := 0; i < rounds; i++ {
		sim.At(Time(i)*Microsecond, func() {
			for n := 0; n < 2; n++ {
				pkt := sim.NewPacket()
				pkt.Dst, pkt.Size = star.Hosts[1].ID(), 1 // 8 bits at 100 Gb/s: 0 ns
				star.Hosts[0].Send(pkt)
			}
			if st := p.stats(); p.Backlog() != 2 || st.Transmitted != 2*i {
				t.Errorf("round %d: backlog %d, transmitted %d; want 2, %d", i, p.Backlog(), st.Transmitted, 2*i)
			}
		})
	}
	sim.Run()
	if delivered != 2*rounds {
		t.Fatalf("delivered %d of %d", delivered, 2*rounds)
	}
}

// TestPushFromLateChildAfterSerializationEnd: an event at a serialization's
// end instant whose key sorts after the reserved tx-done key schedules a
// child at the same instant whose key sorts before it. The tx-done had
// fired before the parent, so the child's push finds the port idle even
// though the child's own key is below the reserved one.
func TestPushFromLateChildAfterSerializationEnd(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}, QueueConfig{})
	p := star.Hosts[0].Uplink()
	send := func() {
		pkt := sim.NewPacket()
		pkt.Dst, pkt.Size = star.Hosts[1].ID(), 1500
		star.Hosts[0].Send(pkt)
	}
	send()
	end, key := p.txAt, p.txKey
	pushed := false
	for i := 0; i < 64; i++ {
		sim.At(end, func() {
			if pushed || sim.ctxKey < key || xrand.Seed(sim.ctxKey, 0) > key {
				return
			}
			pushed = true
			sim.At(end, func() {
				send()
				if p.Stats.Transmitted != 1 || p.Backlog() != 1 || p.txPlaced {
					t.Errorf("push from the late child: transmitted %d, backlog %d, tx-done placed %v; want 1, 1, false",
						p.Stats.Transmitted, p.Backlog(), p.txPlaced)
				}
			})
		})
	}
	sim.Run()
	if !pushed {
		t.Fatal("no parent key above the reserved one with a first child below it")
	}
}

// TestWakeBeforeZeroLengthSuccessor: a virtual serialization end whose
// successor takes no time starts an arrival exactly one link delay after
// the end, the earliest any successor's can be, and nothing but the
// port's wake touches the port in between. The wake must catch the port
// up before that arrival is due: one run with no slice end to catch up
// in between must deliver every packet and audit clean (no event fired
// before the clock).
func TestWakeBeforeZeroLengthSuccessor(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, LinkConfig{Bandwidth: Gbps(400), Delay: Microsecond}, QueueConfig{})
	delivered := 0
	star.Hosts[1].Handler = func(*Packet) { delivered++ }
	for _, size := range []int{1500, 1500, 40, 40, 40, 40} { // 40 B at 400 Gb/s: 0 ns
		pkt := sim.NewPacket()
		pkt.Dst, pkt.Size = star.Hosts[1].ID(), size
		star.Hosts[0].Send(pkt)
	}
	p := star.Hosts[0].Uplink()
	sim.RunUntil(40)
	if !p.txDue {
		t.Fatal("the second packet's end is not virtual; the test needs it to be")
	}
	sim.Run()
	if err := star.Net.Audit(); err != nil {
		t.Fatal(err)
	}
	if delivered != 6 {
		t.Fatalf("delivered %d of 6", delivered)
	}
}
