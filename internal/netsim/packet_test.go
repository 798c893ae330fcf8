package netsim

import (
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
	p := &Packet{Dst: 3, Size: 100, Payload: []byte{1, 2, 3}, Kind: "x"}
	q := sim.clonePacket(p)
	q.Payload[0] = 9
	if p.Payload[0] != 1 {
		t.Fatal("clone aliases payload")
	}
	if q.Dst != 3 || q.Size != 100 || q.Kind != "x" {
		t.Fatal("clone lost fields")
	}
	if !q.pooled || q.home != sim || !q.ownsPayload || sim.PacketsMade() != 1 {
		t.Fatal("clone is not a record of the simulator's pool owning its payload")
	}
	// Nil payload clone.
	r := sim.clonePacket(&Packet{Size: 5})
	if r.Payload != nil || r.ownsPayload {
		t.Fatal("nil payload should stay nil")
	}
}

func TestTrimmableClassification(t *testing.T) {
	trimmable := func(p *Packet) bool { return p.trimLen(0) < len(p.Payload) }
	// Opaque packets are not trimmable.
	if trimmable(&Packet{Size: 100}) {
		t.Error("opaque packet claimed trimmable")
	}
	// Garbage payloads are not trimmable.
	if trimmable(&Packet{Size: 100, Payload: []byte{1, 2, 3}}) {
		t.Error("garbage payload claimed trimmable")
	}
	// Metadata packets are not trimmable.
	meta := wire.BuildMetaPacket(wire.Header{Flow: 1}, 1, 10, 1.0)
	if trimmable(&Packet{Size: len(meta), Payload: meta}) {
		t.Error("metadata claimed trimmable")
	}
	// A real data packet is trimmable.
	data := gradPayload(t, 512)
	p := &Packet{Size: len(data) + wire.NetOverhead, Payload: data}
	if !trimmable(p) {
		t.Fatal("data packet not trimmable")
	}
	// After trimming to the minimum it is no longer trimmable.
	if !p.TrimTo(0) {
		t.Fatal("TrimTo failed")
	}
	if !p.Trimmed || p.Prio != PrioHigh {
		t.Error("TrimTo should set Trimmed and raise priority")
	}
	if trimmable(p) {
		t.Error("minimal packet still claims trimmable")
	}
	if p.TrimTo(0) {
		t.Error("second TrimTo should be a no-op")
	}
}

func TestTrimToUpdatesSize(t *testing.T) {
	data := gradPayload(t, 512)
	p := &Packet{Size: len(data) + wire.NetOverhead, Payload: data}
	before := p.Size
	if !p.TrimTo(0) {
		t.Fatal("TrimTo failed")
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
		star.Hosts[0].Send(&Packet{Dst: 2, Size: len(data) + wire.NetOverhead, Payload: data})
		data2 := gradPayload(t, 512)
		star.Hosts[1].Send(&Packet{Dst: 2, Size: len(data2) + wire.NetOverhead, Payload: data2})
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
			d.Hosts[s].Send(&Packet{Dst: dst, Size: len(data) + wire.NetOverhead, Payload: data})
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

func TestHostDoubleAttachPanics(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim)
	h := net.AddHost(1)
	s1 := net.AddSwitch(1000, QueueConfig{})
	s2 := net.AddSwitch(1001, QueueConfig{})
	net.Connect(h.ID(), s1.ID(), fastLink())
	defer func() {
		if recover() == nil {
			t.Fatal("second attach should panic")
		}
	}()
	net.Connect(h.ID(), s2.ID(), fastLink())
}

func TestUnattachedHostSendPanics(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim)
	h := net.AddHost(1)
	defer func() {
		if recover() == nil {
			t.Fatal("send on unattached host should panic")
		}
	}()
	h.Send(&Packet{Dst: 2, Size: 10})
}

func TestDuplicateNodeIDPanics(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim)
	net.AddHost(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate id should panic")
		}
	}()
	net.AddHost(1)
}

func TestZeroBandwidthPanics(t *testing.T) {
	sim := NewSim()
	net := NewNetwork(sim)
	a := net.AddHost(1)
	b := net.AddHost(2)
	defer func() {
		if recover() == nil {
			t.Fatal("zero bandwidth should panic")
		}
	}()
	net.Connect(a.ID(), b.ID(), LinkConfig{Bandwidth: 0})
}

// Packet stays within 120 bytes: Audit adds no per-record field.
var _ [120 - unsafe.Sizeof(Packet{})]byte

// Port stays in the 384-byte size class, one allocation per port of every
// fabric build: a host's queued runs hide behind one pointer (Port.runs).
var _ [384 - unsafe.Sizeof(Port{})]byte

// TestPooledRecordMisuse pins Audit's pool checks on the three ways a
// caller can break a pooled record's single ownership: releasing it twice,
// sending it after its release, and taking one from NewPacket without
// ever sending it.
func TestPooledRecordMisuse(t *testing.T) {
	cases := []struct {
		name  string
		do    func(sim *Sim, h *Host)
		audit string // substring of Audit's report
	}{
		{"release twice", func(sim *Sim, _ *Host) {
			pkt := sim.NewPacket()
			sim.releasePacket(pkt)
			sim.releasePacket(pkt)
		}, "a pooled packet is free twice"},
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
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim := NewSim()
			star := NewStar(sim, 2, fastLink(), QueueConfig{})
			if err := star.Net.Audit(); err != nil {
				t.Fatalf("fresh fabric: %v", err)
			}
			c.do(sim, star.Hosts[0])
			if err := star.Net.Audit(); err == nil || !strings.Contains(err.Error(), c.audit) {
				t.Fatalf("Audit() = %v, want a report containing %q", err, c.audit)
			}
		})
	}
}
