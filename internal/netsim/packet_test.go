package netsim

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

func gradPayload(t *testing.T, n int) []byte {
	t.Helper()
	r := xrand.New(5)
	row := make([]float32, n)
	for i := range row {
		row[i] = float32(r.NormFloat64())
	}
	c := quant.MustNew(quant.Params{Scheme: quant.RHT})
	if n&(n-1) != 0 {
		c = quant.MustNew(quant.Params{Scheme: quant.Sign})
	}
	enc, err := c.Encode(row, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, data, err := wire.PackRow(1, 1, 0, enc)
	if err != nil {
		t.Fatal(err)
	}
	return data[0]
}

func TestPacketClone(t *testing.T) {
	sim := NewSim()
	p := record(sim, Packet{Dst: 3, Size: 100, Payload: []byte{1, 2, 3}, FlowID: 7})
	q := sim.clonePacket(p)
	q.Payload[0] = 9
	if p.Payload[0] != 1 {
		t.Fatal("clone aliases payload")
	}
	if q.Dst != 3 || q.Size != 100 || q.FlowID != 7 {
		t.Fatal("clone lost fields")
	}
	if q.home != sim || sim.PacketsMade() != 2 {
		t.Fatal("clone is not a record of the simulator's pool")
	}
	// Nil payload clone.
	r := sim.clonePacket(record(sim, Packet{Size: 5}))
	if r.Payload != nil {
		t.Fatal("nil payload should stay nil")
	}
}

func TestTrimmableClassification(t *testing.T) {
	sim := NewSim()
	trimmable := func(p *Packet) bool { return p.trimLen(0) < len(p.Payload) }
	// Opaque packets are not trimmable.
	if trimmable(stampedRecord(sim, Packet{Size: 100})) {
		t.Error("opaque packet claimed trimmable")
	}
	// Garbage payloads are not trimmable.
	if trimmable(stampedRecord(sim, Packet{Size: 100, Payload: []byte{1, 2, 3}})) {
		t.Error("garbage payload claimed trimmable")
	}
	// Metadata packets are not trimmable.
	meta := wire.BuildMetaPacket(wire.Header{Flow: 1}, 1, 10, 1.0)
	if trimmable(stampedRecord(sim, Packet{Size: len(meta), Payload: meta})) {
		t.Error("metadata claimed trimmable")
	}
	// A real data packet is trimmable.
	data := gradPayload(t, 512)
	p := stampedRecord(sim, Packet{Size: len(data) + wire.NetOverhead, Payload: data})
	if !trimmable(p) {
		t.Fatal("data packet not trimmable")
	}
	// After trimming to the minimum it is no longer trimmable.
	if !p.trimTo(0) {
		t.Fatal("trimTo failed")
	}
	if !p.Trimmed || p.Prio != PrioHigh {
		t.Error("trimTo should set Trimmed and raise priority")
	}
	if trimmable(p) {
		t.Error("minimal packet still claims trimmable")
	}
	if p.trimTo(0) {
		t.Error("second trimTo should be a no-op")
	}
}

func TestTrimToUpdatesSize(t *testing.T) {
	data := gradPayload(t, 512)
	p := stampedRecord(NewSim(), Packet{Size: len(data) + wire.NetOverhead, Payload: data})
	before := p.Size
	if !p.trimTo(0) {
		t.Fatal("trimTo failed")
	}
	if p.Size >= before {
		t.Fatalf("size did not shrink: %d -> %d", before, p.Size)
	}
	if p.Size != len(p.Payload)+wire.NetOverhead {
		t.Fatal("size/payload inconsistent")
	}
	// The trimmed payload still parses.
	if _, err := wire.ParseDataPacket(p.Payload); err != nil {
		t.Fatalf("trimmed payload unparseable: %v", err)
	}
}

func TestLossRateDeterministicAndProportional(t *testing.T) {
	run := func() (delivered int) {
		sim := NewSim()
		star := NewStar(sim, 2,
			LinkConfig{Bandwidth: Gbps(10), Delay: 0},
			QueueConfig{CapacityBytes: 1 << 20, LossRate: 0.3, LossSeed: 77})
		star.Hosts[1].Handler = func(p *Packet) { delivered++ }
		for i := 0; i < 1000; i++ {
			pkt := sim.NewPacket()
			pkt.Dst, pkt.Size = 1, 100
			star.Hosts[0].Send(pkt)
		}
		sim.Run()
		// Every pooled record reached a terminal point: a lost packet too.
		if err := star.Net.Audit(); err != nil {
			t.Fatal(err)
		}
		// A loss is counted at its full size, read before the release.
		var lost PortStats
		for _, p := range star.Switches()[0].Ports() {
			lost.Dropped += p.Stats.Dropped
			lost.DroppedBytes += p.Stats.DroppedBytes
		}
		if delivered+lost.Dropped != 1000 || lost.DroppedBytes != 100*lost.Dropped {
			t.Fatalf("delivered %d, lost %d packets of %d bytes; want 1000 packets of 100 bytes",
				delivered, lost.Dropped, lost.DroppedBytes)
		}
		return delivered
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("loss not deterministic: %d vs %d", a, b)
	}
	// The loss config applies to the switch's ports only (hosts use their
	// own deep NIC queue config), so delivery ≈ 0.7.
	if a < 630 || a > 770 {
		t.Fatalf("delivered %d/1000, want ≈700", a)
	}
}

func TestSwitchTrimTargetKeepsTails(t *testing.T) {
	// With a generous TrimTarget, trimmed packets keep part of the tail
	// region (multi-level trimming, §5.1).
	sim := NewSim()
	q := QueueConfig{
		CapacityBytes: 3000, HighCapacityBytes: 1 << 20,
		Mode: TrimOverflow, TrimTarget: 800,
	}
	star := NewStar(sim, 3, LinkConfig{Bandwidth: Mbps(10), Delay: 0}, q)
	sawPartial := false
	star.Hosts[2].Handler = func(p *Packet) {
		if !p.Trimmed {
			return
		}
		dp, err := wire.ParseDataPacket(p.Payload)
		if err != nil {
			t.Errorf("trimmed payload unparseable: %v", err)
			return
		}
		if dp.TailCount > 0 && dp.TailCount < int(dp.Count) {
			sawPartial = true
		}
		if p.Size > 800 {
			t.Errorf("trimmed packet size %d exceeds target 800", p.Size)
		}
	}
	for i := 0; i < 20; i++ {
		data := gradPayload(t, 512)
		star.Hosts[0].Send(record(sim, Packet{Dst: 2, Size: len(data) + wire.NetOverhead, Payload: data}))
		data2 := gradPayload(t, 512)
		star.Hosts[1].Send(record(sim, Packet{Dst: 2, Size: len(data2) + wire.NetOverhead, Payload: data2}))
	}
	sim.Run()
	if !sawPartial {
		t.Fatal("no partially-trimmed packets observed with TrimTarget")
	}
}

func TestDumbbellBottleneckCongests(t *testing.T) {
	// Edge links are 10x the bottleneck: simultaneous left→right senders
	// must overflow the inter-switch port.
	sim := NewSim()
	edge := LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}
	bottleneck := LinkConfig{Bandwidth: Gbps(1), Delay: 5 * Microsecond}
	d := NewDumbbell(sim, 4, 1, edge, bottleneck,
		QueueConfig{CapacityBytes: 10000, Mode: TrimOverflow})
	got := 0
	d.Hosts[4].Handler = func(p *Packet) { got++ }
	dst := d.Hosts[4].ID()
	for i := 0; i < 25; i++ {
		for s := 0; s < 4; s++ {
			data := gradPayload(t, 512)
			d.Hosts[s].Send(record(sim, Packet{Dst: dst, Size: len(data) + wire.NetOverhead, Payload: data}))
		}
	}
	sim.Run()
	sw := d.Tier(TierEdge)
	st := sw[0].Port(sw[1].ID()).Stats
	if st.Trimmed == 0 {
		t.Fatalf("no trimming at the bottleneck: %+v", st)
	}
	if got == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestNetworkMisusePanics: the node and link constructors panic on misuse
// with a message naming it. Each row starts from hosts 1 and 2 and switch
// 1000, host 1 wired to the switch.
func TestNetworkMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		do   func(net *Network)
		want string
	}{
		{"duplicate host id", func(net *Network) { net.addHost(1) }, "netsim: duplicate node id 1"},
		{"switch id of a host", func(net *Network) { net.addSwitch(2, QueueConfig{}) }, "netsim: duplicate node id 2"},
		{"unknown node", func(net *Network) { net.connect(2, 99, fastLink()) }, "netsim: connect unknown nodes 2-99"},
		{"self-link", func(net *Network) { net.connect(2, 2, fastLink()) }, "netsim: self-link at node 2"},
		{"zero bandwidth", func(net *Network) { net.connect(2, 1000, LinkConfig{}) }, "netsim: link 2-1000 bandwidth must be positive"},
		{"host NIC wired twice", func(net *Network) {
			net.addSwitch(1001, QueueConfig{})
			net.connect(1, 1001, fastLink())
		}, "netsim: host 1 already attached"},
		{"duplicate switch link", func(net *Network) { net.connect(1000, 1, fastLink()) }, "netsim: duplicate link 1000-1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := newNetwork(NewSim())
			net.addHost(1)
			net.addHost(2)
			net.addSwitch(1000, QueueConfig{})
			net.connect(1, 1000, fastLink())
			defer func() {
				if got := fmt.Sprint(recover()); got != c.want {
					t.Errorf("recovered %q, want panic %q", got, c.want)
				}
			}()
			c.do(net)
		})
	}
}

func TestUnattachedHostSendPanics(t *testing.T) {
	sim := NewSim()
	h := newNetwork(sim).addHost(1)
	defer func() {
		if recover() == nil {
			t.Fatal("send on unattached host should panic")
		}
	}()
	h.Send(record(sim, Packet{Dst: 2, Size: 10}))
}

// Packet fills its 128-byte size class, pinned from both sides. The cap:
// Audit adds no per-record field, and the trim stamp lives in the pad. The
// floor: with the Kind label gone and no pad, a 112-byte record allocated
// 4 % less an iteration (incast_k8_trim 8.06 → 7.73 MB, permute_k8_s2
// 3.50 → 3.37 MB) but slowed permute_k8_s2 in 16 of 16 alternated
// ./benchmark pairs against the padded record (medians 24.9 → 25.9 ms,
// 12 s runs on a 2-vCPU x86-64 Xeon). The floor is scaled by the word
// size, so a 32-bit build checks the cap only.
var _ [128 - unsafe.Sizeof(Packet{})]byte
var _ [unsafe.Sizeof(Packet{}) - 113*(unsafe.Sizeof(uintptr(0))/8)]byte

// Port stays in the 384-byte size class, one allocation per port of every
// fabric build: a host's queued runs hide behind one pointer (Port.runs),
// and each of its two FIFOs is a 24-byte list header.
var _ [384 - unsafe.Sizeof(Port{})]byte
var _ [24 - unsafe.Sizeof(pktQueue{})]byte

// A host's first run allocates its runQueue and a one-run slice, 32 + 48
// bytes, as before pktRun held a geometry table (permute_k8_s2 builds 128
// of them an iteration).
var _ [32 - unsafe.Sizeof(runQueue{})]byte
var _ [48 - unsafe.Sizeof(pktRun{})]byte

// TestBuiltRecordsStartUnlinked: a record built from a template that sits
// in a list — a run's place, or a queued packet a fault clones — takes
// the template's fields but neither its link nor its run flag.
func TestBuiltRecordsStartUnlinked(t *testing.T) {
	sim := NewSim()
	var q pktQueue
	place, behind := sim.NewPacket(), sim.NewPacket()
	place.Dst, place.Seq, place.FlowID, place.run = 4, 10, 9, true
	q.push(place)
	q.push(behind)
	pkt := runPacket(sim, place, &pktRun{payloads: [][]byte{{1}, {2, 3}}}, 1)
	if pkt.next != nil || pkt.run || pkt.Dst != 4 || pkt.Seq != 11 || pkt.Size != 2+wire.NetOverhead {
		t.Fatalf("runPacket built %+v from a queued run's place", pkt)
	}
	c := sim.clonePacket(place)
	if c.next != nil || c.run || c.Dst != 4 || c.FlowID != 9 {
		t.Fatalf("clonePacket built %+v from a queued run's place", c)
	}
}

// TestPooledRecordMisuse pins the checks on the ways a caller can break a
// pooled record's single ownership. Audit reports four: releasing a record
// twice (which loops the free list onto itself), releasing it while a port
// queues it (which cuts that FIFO), sending it after its release, and
// taking one from NewPacket without ever sending it. Audit walks each list
// no further than its count, so it reports these, never hangs. It also
// reports a record no pool made that a port holds. Host.Send panics on a
// record that is not from its simulator's pool: a literal, or another
// Sim's record.
func TestPooledRecordMisuse(t *testing.T) {
	cases := []struct {
		name string
		do   func(sim *Sim, h *Host)
		want string // substring of the panic, or else of Audit's report
	}{
		{"release twice", func(sim *Sim, _ *Host) {
			pkt := sim.NewPacket()
			sim.releasePacket(pkt)
			sim.releasePacket(pkt)
		}, "a pooled packet is free twice"},
		{"release a queued packet", func(sim *Sim, h *Host) {
			var pkts [3]*Packet
			for i := range pkts {
				pkts[i] = sim.NewPacket()
				pkts[i].Dst, pkts[i].Size = 1, 100
				h.Send(pkts[i])
			}
			sim.releasePacket(pkts[1]) // pkts[0] is on the wire; 1 and 2 queue
		}, "port 0->1000 priority 0 FIFO does not link its 2 packets"},
		{"send released", func(sim *Sim, h *Host) {
			pkt := sim.NewPacket()
			sim.releasePacket(pkt)
			pkt.Dst, pkt.Size = 1, 100
			h.Send(pkt)
			sim.Run()
		}, "a pooled packet is free twice"},
		{"never sent", func(sim *Sim, _ *Host) {
			sim.NewPacket()
			sim.Run()
		}, "1 pooled packets live, 0 held"},
		{"send a literal", func(_ *Sim, h *Host) {
			h.Send(&Packet{Dst: 1, Size: 100})
		}, "Sim.NewPacket"},
		{"send another Sim's record", func(_ *Sim, h *Host) {
			pkt := NewSim().NewPacket()
			pkt.Dst, pkt.Size = 1, 100
			h.Send(pkt)
		}, "Sim.NewPacket"},
		{"enqueue a literal", func(_ *Sim, h *Host) {
			for i := 0; i < 2; i++ { // the first goes on the wire, the second queues
				h.uplink.Enqueue(&Packet{Dst: 1, Size: 100})
			}
		}, "port 0->1000 holds a record no pool made"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim := NewSim()
			star := NewStar(sim, 2, fastLink(), QueueConfig{})
			if err := star.Net.Audit(); err != nil {
				t.Fatalf("fresh fabric: %v", err)
			}
			got := func() (report string) {
				defer func() {
					if r := recover(); r != nil {
						report = fmt.Sprint(r)
					}
				}()
				c.do(sim, star.Hosts[0])
				if err := star.Net.Audit(); err != nil {
					return err.Error()
				}
				return "Audit passed"
			}()
			if !strings.Contains(got, c.want) {
				t.Fatalf("got %q, want a panic or report containing %q", got, c.want)
			}
		})
	}
}
