package netsim

import (
	"fmt"
	"sync/atomic"

	"trimgrad/internal/obs"
	"trimgrad/internal/par"
)

// Sharded execution (DESIGN.md §15): the fabric is partitioned at
// rack boundaries — each edge/leaf switch and the hosts hanging off it
// form a rack, racks are dealt to shards in contiguous blocks, and the
// upper switch tiers are spread the same way so a fat tree's aggregation
// switches stay with their pod. Every shard owns a full Sim (timer
// wheel, event pool, packet pool) and runs on its own pinned par.Team
// executor. The only cross-shard interaction is the propagation arrival
// of a packet crossing a partition-boundary link, exchanged through
// per-(src,dst) mailboxes at a conservative synchronization barrier.
//
// Safety (no rollback): with window W = min cross-shard link delay, a
// window executes events in [T, T+W). A cross-shard arrival created by
// an event at t ≥ T lands at t+delay ≥ T+W — strictly beyond the window
// — so placing mailboxes at the barrier can never deliver into a
// shard's past. Determinism across shard counts comes from the event
// order every Sim uses (see Sim.nextKey): tie-break keys are causal-path
// hashes, identical at every shard count, so each shard fires its events
// in exactly the order the 1-shard engine — and a plain Sim — would.

// xmsg is one cross-shard packet hand-off: the propagation arrival of a
// packet that left through a partition-boundary port, stamped with its
// arrival time and the causal key assigned at the sending shard. The
// receiving node is port's peer; the destination shard only reads that
// field, which no shard writes after partitioning.
type xmsg struct {
	at   Time
	key  uint64
	port *Port
	pkt  *Packet
}

// shard couples one Sim with its partition slice and telemetry registry.
type shard struct {
	sim      *Sim
	reg      *obs.Registry
	switches []NodeID
	hosts    []NodeID
}

// ShardAssignment describes one shard's slice of the fabric, for
// operator-facing partition maps (cmd/netsim -v).
type ShardAssignment struct {
	Shard    int
	Switches []NodeID
	Hosts    []NodeID
}

// Engine drives a topology partitioned across per-shard simulators. Use
// ShardTopology to build one; 1 shard is valid (it is the bit-identity
// reference the differential tests compare higher counts and the plain
// Sim against).
type Engine struct {
	shards []*shard
	window Time // conservative lookahead: min cross-shard link delay
	team   *par.Team
	topo   *Topology

	mainObs *obs.Registry // registry attached before partitioning

	parallel bool        // a team phase is running; guards foreign scheduling
	bound    Time        // inclusive bound of the current window phase
	stop     atomic.Bool // Engine.Stop latch; may be set from shard goroutines

	execF, exchangeF func(int) // preallocated phase closures
}

// ShardTopology partitions t's fabric into the given number of shards
// and returns the Engine that runs them. It must be called on a pristine
// simulator — after the topology is built, before transports, faults, or
// any scheduled event — because it rewires every node and port onto its
// shard's simulator. shards must be between 1 and the number of rack
// (edge/leaf tier) switches: a rack is never split, so more shards than
// racks is a configuration error, reported rather than clamped.
func ShardTopology(t *Topology, shards int) (*Engine, error) {
	base := t.Net.Sim
	if len(t.Tiers) == 0 || len(t.Tiers[0].Switches) == 0 {
		return nil, fmt.Errorf("netsim: shard: topology %q has no rack tier", t.Kind)
	}
	racks := t.Tiers[0].Switches
	if shards < 1 {
		return nil, fmt.Errorf("netsim: shard count must be ≥ 1, got %d", shards)
	}
	if shards > len(racks) {
		return nil, fmt.Errorf("netsim: %d shards exceed the %d %s switches of this %s topology; a rack is never split, so use at most %d shards",
			shards, len(racks), t.Tiers[0].Name, t.Kind, len(racks))
	}
	if base.npend != 0 || *base.rootN != 0 || base.now != 0 || base.eng != nil {
		return nil, fmt.Errorf("netsim: shard: simulator is not pristine (events were scheduled or it is already sharded); partition right after building the topology")
	}
	if base.controlMerger != nil {
		return nil, fmt.Errorf("netsim: shard: transports were built before partitioning; call ShardTopology first so stacks bind to their shard's simulator")
	}

	e := &Engine{window: maxTime, topo: t, mainObs: base.obs}
	for i := 0; i < shards; i++ {
		s := base
		if i > 0 {
			s = NewSim()
			s.rootN = base.rootN
		}
		s.eng = e
		s.shardIdx = i
		s.out = make([][]xmsg, shards)
		s.retPkt = make([][]*Packet, shards)
		sh := &shard{sim: s}
		if e.mainObs != nil {
			sh.reg = obs.New()
			s.obs = sh.reg
		}
		e.shards = append(e.shards, sh)
	}
	// Partition: rack r (and its hosts) → shard r·S/nRacks, in tier
	// order, so contiguous racks — a fat tree's pods — stay together.
	// Upper tiers spread the same way: pod-major aggregation switches land
	// with their pod whenever S divides the pod count.
	simOf := make(map[NodeID]*Sim)
	assign := func(n Node, idx int) {
		sh := e.shards[idx]
		simOf[n.ID()] = sh.sim
		switch n := n.(type) {
		case *Switch:
			sh.switches = append(sh.switches, n.ID())
			n.sim = sh.sim
			for _, p := range n.Ports() {
				p.rebind(sh.sim)
			}
		case *Host:
			sh.hosts = append(sh.hosts, n.ID())
			n.sim = sh.sim
			if p := n.uplink; p != nil {
				p.rebind(sh.sim)
			}
		}
	}
	rackShard := make(map[NodeID]int, len(racks))
	for r, sw := range racks {
		idx := r * shards / len(racks)
		rackShard[sw.ID()] = idx
		assign(sw, idx)
	}
	for _, tier := range t.Tiers[1:] {
		for j, sw := range tier.Switches {
			assign(sw, j*shards/len(tier.Switches))
		}
	}
	for _, h := range t.Hosts {
		if h.uplink == nil {
			assign(h, 0)
			continue
		}
		idx, ok := rackShard[h.uplink.peer.ID()]
		if !ok {
			return nil, fmt.Errorf("netsim: shard: host %d attaches to switch %d outside the %s tier; rack partitioning needs hosts on rack switches",
				h.ID(), h.uplink.peer.ID(), t.Tiers[0].Name)
		}
		assign(h, idx)
	}

	// Wire peerSim on every port and derive the lookahead window from the
	// partition-crossing links.
	ports := func(visit func(p *Port)) {
		for _, sw := range t.Switches() {
			for _, p := range sw.Ports() {
				visit(p)
			}
		}
		for _, h := range t.Hosts {
			if h.uplink != nil {
				visit(h.uplink)
			}
		}
	}
	var werr error
	ports(func(p *Port) {
		ps, ok := simOf[p.peer.ID()]
		if !ok {
			ps = p.sim // peer outside the topology structures: keep local
		}
		p.peerSim = ps
		if ps != p.sim {
			if p.link.Delay <= 0 && werr == nil {
				werr = fmt.Errorf("netsim: shard: link %d->%d crosses a shard boundary with zero propagation delay; conservative lookahead needs every cross-shard delay > 0",
					p.owner, p.peer.ID())
			}
			if p.link.Delay < e.window {
				e.window = p.link.Delay
			}
		}
	})
	if werr != nil {
		return nil, werr
	}

	e.team = par.NewTeam(shards)
	e.execF = func(i int) {
		s := e.shards[i].sim
		s.active = true
		s.runTo(e.bound)
		s.active = false
	}
	e.exchangeF = func(j int) {
		d := e.shards[j].sim
		d.active = true
		for i := range e.shards {
			src := e.shards[i].sim
			msgs := src.out[j]
			for k := range msgs {
				d.placeRemote(msgs[k])
				msgs[k] = xmsg{}
			}
			src.out[j] = msgs[:0]
			if pkts := src.retPkt[j]; len(pkts) > 0 {
				d.freePkt = append(d.freePkt, pkts...)
				for k := range pkts {
					pkts[k] = nil
				}
				src.retPkt[j] = pkts[:0]
			}
		}
		d.active = false
	}
	return e, nil
}

// rebind moves the port, and the fault injector attached to it, onto its
// shard's simulator. Telemetry needs no re-binding: the port's source and
// histogram live on the pre-partition registry, which Snapshot merges.
func (p *Port) rebind(s *Sim) {
	p.sim = s
	if p.faults != nil {
		p.faults.sim = s
	}
}

// Window returns the conservative lookahead (min cross-shard link delay;
// maxTime when no link crosses a boundary, e.g. with 1 shard).
func (e *Engine) Window() Time { return e.window }

// Partition returns the shard → switches/hosts map, in shard order.
func (e *Engine) Partition() []ShardAssignment {
	out := make([]ShardAssignment, len(e.shards))
	for i, sh := range e.shards {
		out[i] = ShardAssignment{
			Shard:    i,
			Switches: append([]NodeID(nil), sh.switches...),
			Hosts:    append([]NodeID(nil), sh.hosts...),
		}
	}
	return out
}

// Now returns the engine clock: the furthest shard clock (they are all
// equal after RunUntil returns).
func (e *Engine) Now() Time {
	var now Time
	for _, sh := range e.shards {
		if sh.sim.now > now {
			now = sh.sim.now
		}
	}
	return now
}

// Pending returns the number of queued events across all shards.
// Mailboxes are always drained at the barrier, so between calls this is
// the complete count.
func (e *Engine) Pending() int {
	n := 0
	for _, sh := range e.shards {
		n += sh.sim.npend
	}
	return n
}

// Processed returns the total executed event count across shards.
func (e *Engine) Processed() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.sim.Processed
	}
	return n
}

// nextAt returns the earliest pending timestamp across shards.
func (e *Engine) nextAt() (Time, bool) {
	var min Time
	ok := false
	for _, sh := range e.shards {
		if at, has := sh.sim.nextAt(); has && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}

// RunUntil executes events with timestamps ≤ deadline across all shards
// in synchronized windows, then advances every shard clock to the
// deadline (mirroring Sim.RunUntil). A Sim.Stop called from inside an
// event takes effect at the enclosing window boundary.
func (e *Engine) RunUntil(deadline Time) {
	e.stop.Store(false)
	for {
		t, ok := e.nextAt()
		if !ok || t > deadline {
			break
		}
		bound := deadline
		if e.window < maxTime {
			if wb := t + e.window - 1; wb < bound {
				bound = wb
			}
		}
		e.bound = bound
		e.parallel = true
		e.team.Run(e.execF)
		e.team.Run(e.exchangeF)
		e.parallel = false
		// Sim.Stop on a shard (read here after the barrier, so no race) and
		// Engine.Stop (an atomic latch, settable mid-window from any shard
		// goroutine) both land at the window boundary.
		stopped := e.stop.Load()
		for _, sh := range e.shards {
			if sh.sim.stopped {
				stopped = true
			}
		}
		if stopped {
			return
		}
	}
	if deadline < maxTime {
		for _, sh := range e.shards {
			if sh.sim.now < deadline {
				sh.sim.now = deadline
			}
		}
	}
}

// Run executes events until every shard drains (or a Stop lands). Like
// Sim.Run, open-loop traffic never drains — use RunUntil slices there.
func (e *Engine) Run() { e.RunUntil(maxTime) }

// Stop makes the current RunUntil return at the next window boundary.
// Unlike Sim.Stop it is window-granular: events of the in-progress window
// still fire on every shard, which is what keeps a stopped run in a
// consistent cross-shard state. Safe to call from event code on any
// shard.
func (e *Engine) Stop() { e.stop.Store(true) }

// Snapshot merges the pre-partition registry with every shard registry
// into one canonical snapshot. obs.Merge is associative, commutative,
// and canonicalizing (sorted names and spans, summed counters), so the
// merged bytes are identical at every shard count.
func (e *Engine) Snapshot() obs.Snapshot {
	if e.mainObs == nil {
		return obs.Snapshot{}
	}
	snap := e.mainObs.Snapshot()
	for _, sh := range e.shards {
		snap = obs.Merge(snap, sh.reg.Snapshot())
	}
	return snap
}

// Close joins the shard worker goroutines. The engine must be idle; no
// Run/RunUntil may be in flight or follow.
func (e *Engine) Close() { e.team.Close() }
