package netsim

import (
	"fmt"

	"trimgrad/internal/obs"
	"trimgrad/internal/xrand"
)

// FaultConfig describes an adversarial fault process attached to one
// direction of a link. Every probability is evaluated per packet against
// a seeded xrand stream, so a given (Seed, topology, workload) triple
// replays the exact same fault sequence run after run.
//
// The zero value injects nothing; set only the knobs a scenario needs.
type FaultConfig struct {
	// Seed keys the fault stream. Each link direction derives its own
	// sub-stream from (Seed, from, to), so the two directions of a
	// full-duplex link fault independently but reproducibly.
	Seed uint64

	// CorruptRate flips CorruptBits random payload bits in that fraction
	// of payload-carrying packets. The corrupted copy is a clone: the
	// sender's retransmit buffers are never touched, exactly as on a real
	// wire. Opaque packets (acks, cross traffic) are not corrupted — the
	// simulator has no bytes to flip.
	CorruptRate float64
	// CorruptBits is the number of bit flips per corrupted packet.
	// Zero means 1.
	CorruptBits int

	// DuplicateRate delivers that fraction of packets twice. The second
	// copy is an independent clone injected immediately behind the first.
	DuplicateRate float64

	// ReorderRate holds back that fraction of packets for ReorderDelay of
	// simulated time before admitting them to the queue, letting later
	// packets overtake — reordering plus jitter in one knob.
	ReorderRate float64
	// ReorderDelay is how long a reordered packet is held back.
	// Zero means 10 µs.
	ReorderDelay Time

	// Gilbert-Elliott bursty loss: a two-state Markov channel that passes
	// every packet while in the good state and drops at LossBad while in
	// the bad state, transitioning good→bad with probability GoodToBad and
	// bad→good with probability BadToGood per packet. GoodToBad = 0
	// disables the chain (the channel stays good). Uniform loss is
	// QueueConfig.LossRate.
	GoodToBad float64
	BadToGood float64
	LossBad   float64
}

// enabled reports whether the config can inject anything at all.
func (c FaultConfig) enabled() bool {
	return c.CorruptRate > 0 || c.DuplicateRate > 0 || c.ReorderRate > 0 ||
		c.GoodToBad > 0
}

// FaultStats counts what a FaultInjector actually did. It is the only
// place fault events are recorded; with a registry attached the fields
// export as the "netsim.fault.<from>-><to>.*" counters.
type FaultStats struct {
	Corrupted    int
	Duplicated   int
	Reordered    int
	BurstDropped int
}

func (s *FaultStats) emit(e obs.Emit, prefix string) {
	e.Counter(prefix+"corrupted_total", s.Corrupted)
	e.Counter(prefix+"duplicated_total", s.Duplicated)
	e.Counter(prefix+"reordered_total", s.Reordered)
	e.Counter(prefix+"burst_dropped_total", s.BurstDropped)
}

// FaultInjector applies a FaultConfig to packets entering one port. It is
// created via Port.SetFaults or Network.InjectFaults and owns a private
// xrand stream, keeping fault draws out of every other random sequence in
// the simulation (loss sweeps, workload generation) so adding faults to
// one link never perturbs an unrelated one.
type FaultInjector struct {
	sim   *Sim
	cfg   FaultConfig
	rng   *xrand.Rand
	bad   bool // Gilbert-Elliott channel state
	Stats FaultStats
}

func newFaultInjector(sim *Sim, cfg FaultConfig, streamID ...uint64) *FaultInjector {
	parts := append([]uint64{cfg.Seed}, streamID...)
	return &FaultInjector{sim: sim, cfg: cfg, rng: xrand.New(xrand.Seed(parts...))}
}

// apply runs the fault pipeline for one packet entering port p (p.admit is
// the port's normal enqueue path). The order is fixed: burst loss first (a
// lost packet can't be duplicated), then duplication, then corruption,
// then reordering. Reordered packets are held back through a typed pooled
// event, so chaos runs stay on the closure-free fast path.
func (f *FaultInjector) apply(pkt *Packet, p *Port) {
	if f.dropBurst() {
		f.Stats.BurstDropped++
		f.sim.releasePacket(pkt)
		return
	}
	if f.cfg.DuplicateRate > 0 && f.rng.Float64() < f.cfg.DuplicateRate {
		f.Stats.Duplicated++
		p.admit(f.sim.clonePacket(pkt))
	}
	if f.cfg.CorruptRate > 0 && len(pkt.Payload) > 0 && f.rng.Float64() < f.cfg.CorruptRate {
		orig := pkt
		pkt = f.corrupt(orig)
		f.sim.releasePacket(orig)
	}
	if f.cfg.ReorderRate > 0 && f.rng.Float64() < f.cfg.ReorderRate {
		f.Stats.Reordered++
		delay := f.cfg.ReorderDelay
		if delay <= 0 {
			delay = 10 * Microsecond
		}
		f.sim.afterAdmit(delay, p, pkt)
		return
	}
	p.admit(pkt)
}

// dropBurst steps the Gilbert-Elliott chain one packet and draws loss.
func (f *FaultInjector) dropBurst() bool {
	if f.cfg.GoodToBad <= 0 {
		return false
	}
	if f.bad {
		if f.rng.Float64() < f.cfg.BadToGood {
			f.bad = false
		}
	} else if f.rng.Float64() < f.cfg.GoodToBad {
		f.bad = true
	}
	return f.bad && f.cfg.LossBad > 0 && f.rng.Float64() < f.cfg.LossBad
}

// corrupt returns a clone of pkt with CorruptBits payload bits flipped in
// a copy of its payload, the one copy a fault makes: the original Payload
// is shared with the sender's retransmit buffer (and any duplicate), and
// corrupting it in place would poison every retry.
func (f *FaultInjector) corrupt(pkt *Packet) *Packet {
	c := f.sim.clonePacket(pkt)
	c.Payload = append([]byte(nil), pkt.Payload...)
	bits := f.cfg.CorruptBits
	if bits <= 0 {
		bits = 1
	}
	for i := 0; i < bits; i++ {
		pos := f.rng.Intn(len(c.Payload) * 8)
		c.Payload[pos/8] ^= 1 << uint(pos%8)
	}
	c.stamp() // the flipped bits may be the header's
	f.Stats.Corrupted++
	return c
}

// SetFaults attaches a fault process to this port, deriving its stream
// from cfg.Seed and streamID. A zero-value cfg detaches.
func (p *Port) SetFaults(cfg FaultConfig, streamID ...uint64) *FaultInjector {
	if !cfg.enabled() {
		p.faults = nil
		return nil
	}
	f := newFaultInjector(p.sim, cfg, streamID...)
	p.faults = f
	if r := p.sim.obs; r != nil {
		prefix := fmt.Sprintf("netsim.fault.%d->%d.", p.owner, p.peer.ID())
		r.AddSource(func(e obs.Emit) { f.Stats.emit(e, prefix) })
	}
	return f
}

// Faults returns the port's fault injector, or nil.
func (p *Port) Faults() *FaultInjector { return p.faults }

// SetDown takes the port (one link direction) out of service: everything
// enqueued while down is counted in Stats.DownDrops and discarded.
// Packets already in flight or queued are not affected, as with a real
// cable pull mid-transmission.
func (p *Port) SetDown(down bool) { p.down = down }

// portBetween returns a's outgoing port toward b, panicking on unknown or
// unconnected pairs — topology mistakes in a chaos scenario should fail
// loudly, not silently inject nothing.
func (n *Network) portBetween(a, b NodeID) *Port {
	na := n.nodes[a]
	if na == nil {
		panic(fmt.Sprintf("netsim: unknown node %d", a))
	}
	p := na.portTo(b)
	if p == nil {
		panic(fmt.Sprintf("netsim: no link %d→%d", a, b))
	}
	return p
}

// InjectFaults attaches cfg to both directions of the a-b link and
// returns the two injectors (a→b, b→a). Each direction derives an
// independent stream from (cfg.Seed, from, to).
func (n *Network) InjectFaults(a, b NodeID, cfg FaultConfig) (ab, ba *FaultInjector) {
	ab = n.portBetween(a, b).SetFaults(cfg, uint64(a), uint64(b))
	ba = n.portBetween(b, a).SetFaults(cfg, uint64(b), uint64(a))
	return ab, ba
}

// SetLinkDown flips both directions of the a-b link.
func (n *Network) SetLinkDown(a, b NodeID, down bool) {
	n.portBetween(a, b).SetDown(down)
	n.portBetween(b, a).SetDown(down)
}

// FlapLink schedules the a-b link to go down at `at` and come back up
// `duration` later. Each direction's transitions are scheduled on the
// simulator that owns its port: on a sharded fabric the two ends of a
// cross-shard link live on different timer wheels, and flipping a foreign
// port from another shard's event would race.
func (n *Network) FlapLink(a, b NodeID, at, duration Time) {
	for _, p := range []*Port{n.portBetween(a, b), n.portBetween(b, a)} {
		p := p
		p.sim.At(at, func() { p.SetDown(true) })
		p.sim.At(at+duration, func() { p.SetDown(false) })
	}
}
