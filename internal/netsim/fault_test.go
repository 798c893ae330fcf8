package netsim

import (
	"bytes"
	"testing"
)

// faultHarness drives nSent payload packets from host 0 to host 1 across
// a 2-host star whose host0→switch direction carries the fault config,
// and returns the injector plus every payload host 1 received.
type faultHarness struct {
	sim      *Sim
	star     *Topology
	injector *FaultInjector
	received [][]byte
}

func newFaultHarness(t *testing.T, cfg FaultConfig, nSent int) *faultHarness {
	t.Helper()
	sim := NewSim()
	star := NewStar(sim, 2,
		LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond},
		QueueConfig{CapacityBytes: 1 << 20})
	h := &faultHarness{sim: sim, star: star}
	inj, _ := star.Net.InjectFaults(0, SwitchIDBase, cfg)
	h.injector = inj
	star.Hosts[1].Handler = func(p *Packet) {
		h.received = append(h.received, append([]byte(nil), p.Payload...))
	}
	for i := 0; i < nSent; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 64)
		sim.At(Time(i)*10*Microsecond, func() {
			star.Hosts[0].Send(&Packet{Dst: 1, Size: len(payload), Payload: payload})
		})
	}
	return h
}

func TestFaultDuplicationDeliversTwice(t *testing.T) {
	h := newFaultHarness(t, FaultConfig{Seed: 1, DuplicateRate: 1}, 10)
	h.sim.Run()
	if got := len(h.received); got != 20 {
		t.Fatalf("delivered %d packets, want 20 (each duplicated)", got)
	}
	if h.injector.Stats.Duplicated != 10 {
		t.Errorf("Duplicated = %d, want 10", h.injector.Stats.Duplicated)
	}
}

func TestFaultCorruptionClonesPayload(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2,
		LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond},
		QueueConfig{CapacityBytes: 1 << 20})
	star.Net.InjectFaults(0, SwitchIDBase, FaultConfig{Seed: 2, CorruptRate: 1, CorruptBits: 3})
	original := bytes.Repeat([]byte{0xAA}, 128)
	sent := append([]byte(nil), original...)
	var got []byte
	star.Hosts[1].Handler = func(p *Packet) { got = p.Payload }
	star.Hosts[0].Send(&Packet{Dst: 1, Size: len(sent), Payload: sent})
	sim.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if bytes.Equal(got, original) {
		t.Error("payload was not corrupted")
	}
	if !bytes.Equal(sent, original) {
		t.Error("corruption mutated the sender's buffer instead of a clone")
	}
}

func TestFaultReorderStillDelivers(t *testing.T) {
	h := newFaultHarness(t, FaultConfig{
		Seed: 3, ReorderRate: 0.5, ReorderDelay: 50 * Microsecond,
	}, 40)
	h.sim.Run()
	if got := len(h.received); got != 40 {
		t.Fatalf("delivered %d packets, want 40 (reordering must not lose)", got)
	}
	if h.injector.Stats.Reordered == 0 {
		t.Error("expected some reordered packets at rate 0.5 over 40 sends")
	}
}

func TestFaultGilbertElliottDropsInBursts(t *testing.T) {
	h := newFaultHarness(t, FaultConfig{
		Seed: 4, GoodToBad: 0.2, BadToGood: 0.3, LossBad: 1,
	}, 200)
	h.sim.Run()
	dropped := h.injector.Stats.BurstDropped
	if dropped == 0 {
		t.Fatal("expected burst losses")
	}
	if len(h.received) != 200-dropped {
		t.Errorf("delivered %d, sent 200, dropped %d — packets unaccounted",
			len(h.received), dropped)
	}
	if len(h.received) == 0 {
		t.Error("the chain must recover to the good state sometimes")
	}
}

// TestFaultDeterminism is the replayability contract: the same seed must
// reproduce the exact same fault sequence, and a different seed must not.
func TestFaultDeterminism(t *testing.T) {
	run := func(seed uint64) (FaultStats, int) {
		h := newFaultHarness(t, FaultConfig{
			Seed: seed, CorruptRate: 0.2, DuplicateRate: 0.2, ReorderRate: 0.2,
			GoodToBad: 0.05, BadToGood: 0.3, LossBad: 0.9,
		}, 300)
		h.sim.Run()
		return h.injector.Stats, len(h.received)
	}
	s1, n1 := run(7)
	s2, n2 := run(7)
	if s1 != s2 || n1 != n2 {
		t.Fatalf("same seed diverged: %+v/%d vs %+v/%d", s1, n1, s2, n2)
	}
	s3, n3 := run(8)
	if s1 == s3 && n1 == n3 {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestLinkFlapDropsThenRecovers(t *testing.T) {
	h := newFaultHarness(t, FaultConfig{}, 0)
	// 100 packets, one per 10 µs; the link is down for t ∈ [200, 500) µs.
	for i := 0; i < 100; i++ {
		i := i
		h.sim.At(Time(i)*10*Microsecond, func() {
			h.star.Hosts[0].Send(&Packet{Dst: 1, Size: 64, Payload: []byte{byte(i)}})
		})
	}
	h.star.Net.FlapLink(0, SwitchIDBase, 200*Microsecond, 300*Microsecond)
	h.sim.Run()
	port := h.star.Net.portBetween(0, SwitchIDBase)
	if port.Stats.DownDrops == 0 {
		t.Fatal("expected drops while the link was down")
	}
	if len(h.received)+port.Stats.DownDrops != 100 {
		t.Errorf("received %d + downdrops %d != 100", len(h.received), port.Stats.DownDrops)
	}
	// Packets sent after the flap window must have made it.
	last := h.received[len(h.received)-1]
	if last[0] != 99 {
		t.Errorf("last delivered packet is %d, want 99 (link must recover)", last[0])
	}
}

func TestHostPauseAndFail(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2,
		LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond},
		QueueConfig{CapacityBytes: 1 << 20})
	got := 0
	star.Hosts[1].Handler = func(*Packet) { got++ }
	send := func() { star.Hosts[0].Send(&Packet{Dst: 1, Size: 64}) }

	// Pause host 1 for 100 µs starting at t=50 µs.
	sim.At(50*Microsecond, func() { star.Hosts[1].Pause(100 * Microsecond) })
	sim.At(10*Microsecond, send)  // delivered
	sim.At(100*Microsecond, send) // dropped: receiver paused
	sim.At(200*Microsecond, send) // delivered: receiver resumed
	sim.Run()
	if got != 2 {
		t.Fatalf("delivered %d packets around a pause, want 2", got)
	}
	if star.Hosts[1].DownDrops != 1 {
		t.Errorf("DownDrops = %d, want 1", star.Hosts[1].DownDrops)
	}

	// Fail is permanent: nothing after it is delivered or sent.
	star.Hosts[1].Fail()
	sim.At(sim.Now()+Microsecond, send)
	sim.Run()
	if got != 2 {
		t.Error("a failed host must not deliver")
	}
	if !star.Hosts[1].Down() {
		t.Error("failed host reports up")
	}
	star.Hosts[1].Send(&Packet{Dst: 0, Size: 64})
	if up := star.Hosts[1].Uplink().Stats.Enqueued; up != 0 {
		t.Error("a failed host must not send")
	}
}

// TestFaultDuplicatesFromPool: a duplicate is a record of the simulator's
// pool, recycled at delivery like the original, so a warmed port whose
// every opaque packet is duplicated allocates nothing per packet.
func TestFaultDuplicatesFromPool(t *testing.T) {
	sim := NewSim()
	star := NewStar(sim, 2, LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}, QueueConfig{CapacityBytes: 1 << 20})
	star.Net.InjectFaults(0, SwitchIDBase, FaultConfig{Seed: 5, DuplicateRate: 1})
	delivered := 0
	star.Hosts[1].Handler = func(*Packet) { delivered++ }
	const pkts = 64
	send := func() {
		for i := 0; i < pkts; i++ {
			pkt := sim.NewPacket()
			pkt.Dst, pkt.Size = 1, 1500
			star.Hosts[0].Send(pkt)
		}
		sim.Run()
	}
	send() // warm the event, packet and queue pools
	if delivered != 2*pkts {
		t.Fatalf("delivered %d packets, want %d (every one duplicated)", delivered, 2*pkts)
	}
	if err := star.Net.Audit(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, send); avg != 0 {
		t.Fatalf("%.2f allocs per duplicated packet, want 0", avg/pkts)
	}
}
