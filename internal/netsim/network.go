package netsim

import (
	"fmt"
	"math"
	"sort"

	"trimgrad/internal/obs"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

// LinkConfig describes one direction of a full-duplex link.
type LinkConfig struct {
	// Bandwidth in bits per second.
	Bandwidth int64
	// Delay is the one-way propagation delay.
	Delay Time
}

// Gbps converts gigabits per second to bits per second.
func Gbps(g float64) int64 { return int64(g * 1e9) }

// Mbps converts megabits per second to bits per second.
func Mbps(m float64) int64 { return int64(m * 1e6) }

// QueueMode selects the overflow behaviour of a switch output queue.
type QueueMode uint8

const (
	// DropTail drops packets that do not fit (the conventional baseline).
	DropTail QueueMode = iota
	// TrimOverflow trims overflowing packets to their head boundary and
	// forwards them in the high-priority queue (NDP-style).
	TrimOverflow
)

// QueueConfig configures the output queues of a node's ports.
type QueueConfig struct {
	// CapacityBytes bounds the normal-priority queue (a shallow buffer,
	// e.g. 100 kB per port).
	CapacityBytes int
	// HighCapacityBytes bounds the high-priority queue carrying trimmed
	// headers and control packets. Zero means CapacityBytes/4.
	HighCapacityBytes int
	// Mode selects drop vs. trim on overflow.
	Mode QueueMode
	// TrimTarget is the post-trim wire size in bytes; zero means trim to
	// the minimum (head boundary). §5.1's multi-level trimming uses
	// larger targets.
	TrimTarget int
	// LossRate drops packets uniformly at random on enqueue (in addition
	// to overflow behaviour), modelling corruption or upstream loss for
	// the §4.4 drop-tolerance sweep. Control packets (PrioHigh) are also
	// subject to it.
	LossRate float64
	// LossSeed seeds the random-loss stream.
	LossSeed uint64
	// AggregateTrimmable enables SwitchML-style in-network aggregation at
	// this node's output queues: trimmable gradient packets for the same
	// destination and aggregation key are folded into a single aggregate
	// packet carrying native-domain sums (DESIGN.md §13). Composes with
	// Mode — an aggregate overflowing the queue is trimmed, not dropped,
	// under TrimOverflow.
	AggregateTrimmable bool
}

func (q QueueConfig) withDefaults() QueueConfig {
	if q.CapacityBytes == 0 {
		q.CapacityBytes = 100 << 10
	}
	if q.HighCapacityBytes == 0 {
		q.HighCapacityBytes = q.CapacityBytes / 4
	}
	return q
}

// Node is anything attachable to the network fabric.
type Node interface {
	ID() NodeID
	// Deliver is invoked by the simulator when a packet arrives.
	Deliver(pkt *Packet)
	// attach creates this node's outgoing port toward peer. It panics on
	// a host NIC already wired or a duplicate switch link.
	attach(peer Node, link LinkConfig)
	// portTo returns the outgoing port toward a directly-connected peer,
	// or nil. Fault injection and link flaps address ports through it.
	portTo(peer NodeID) *Port
}

// Network owns the topology: nodes and the links between them.
type Network struct {
	Sim   *Sim
	nodes map[NodeID]Node
	// ecmpSeed salts the flow hash of every switch created afterwards:
	// the Clos builders set it from FabricSpec.ECMPSeed. Two networks with
	// different seeds spread the same flow set differently; the same seed
	// reproduces the exact per-flow path choices, bit for bit.
	ecmpSeed uint64
	// auditHeld and auditFree are Audit's record sets, cleared and kept
	// between calls: a fabric audited every training round sizes them once.
	auditHeld, auditFree map[*Packet]bool
}

// Option configures a Network at construction.
type Option func(*Network)

// WithRegistry attaches a telemetry registry to the network's simulator.
// Every port created afterwards exports its PortStats through the
// registry (metric prefix "netsim.port.<owner>-><peer>."), and every
// transport stack and collective worker built on the fabric reports into
// it too (Sim.Obs); each layer stamps its own spans in simulated time.
func WithRegistry(r *obs.Registry) Option {
	return func(n *Network) { n.Sim.obs = r }
}

// newNetwork returns an empty network driven by sim.
func newNetwork(sim *Sim, opts ...Option) *Network {
	n := &Network{Sim: sim, nodes: make(map[NodeID]Node)}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Node returns the node with the given id, or nil.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// The constructors below panic on misuse; FabricSpec.Validate refuses,
// with an error, every spec whose build would.

func (n *Network) register(node Node) {
	if _, dup := n.nodes[node.ID()]; dup {
		panic(fmt.Sprintf("netsim: duplicate node id %d", node.ID()))
	}
	n.nodes[node.ID()] = node
}

// addHost creates a host endpoint.
func (n *Network) addHost(id NodeID) *Host {
	h := &Host{id: id, sim: n.Sim}
	n.register(h)
	n.Sim.obs.AddSource(func(e obs.Emit) {
		e.Counter(fmt.Sprintf("netsim.host.%d.down_drops_total", id), h.DownDrops)
	})
	return h
}

// addSwitch creates a switch whose ports use cfg.
func (n *Network) addSwitch(id NodeID, cfg QueueConfig) *Switch {
	n.Sim.trims = n.Sim.trims || cfg.Mode == TrimOverflow
	sw := &Switch{
		id:      id,
		sim:     n.Sim,
		cfg:     cfg.withDefaults(),
		ports:   make(map[NodeID]*Port),
		ecmpKey: xrand.Seed(n.ecmpSeed, uint64(id)),
	}
	n.register(sw)
	n.Sim.obs.AddSource(func(e obs.Emit) {
		e.Counter(fmt.Sprintf("netsim.switch.%d.route_misses_total", id), sw.RouteMisses)
	})
	return sw
}

// connect wires a full-duplex link between two nodes. Unknown endpoints,
// a self-link, a non-positive bandwidth and double-wiring (a host NIC
// already attached, a duplicate switch link) panic.
func (n *Network) connect(a, b NodeID, link LinkConfig) {
	na, nb := n.nodes[a], n.nodes[b]
	switch {
	case na == nil || nb == nil:
		panic(fmt.Sprintf("netsim: connect unknown nodes %d-%d", a, b))
	case a == b:
		panic(fmt.Sprintf("netsim: self-link at node %d", a))
	case link.Bandwidth <= 0:
		panic(fmt.Sprintf("netsim: link %d-%d bandwidth must be positive", a, b))
	}
	na.attach(nb, link)
	nb.attach(na, link)
}

// PortStats counts what happened at one output port.
type PortStats struct {
	Enqueued      int
	Transmitted   int
	Dropped       int
	DroppedBytes  int
	Trimmed       int
	MaxQueueBytes int
	// DownDrops counts packets discarded because the port was down
	// (link flap or partition). Kept separate from Dropped so loss-rate
	// assertions in congestion experiments stay meaningful.
	DownDrops int
	// Aggregated counts merge events: each is one arriving packet folded
	// into a queued one (so k original packets becoming one aggregate
	// count k−1). Only nonzero with QueueConfig.AggregateTrimmable.
	Aggregated int
}

// emit reports the counts under a port's metric prefix. PortStats is the
// only place port events are recorded; the registry calls this when it is
// snapshotted.
func (s *PortStats) emit(e obs.Emit, prefix string) {
	e.Counter(prefix+"enqueued_total", s.Enqueued)
	e.Counter(prefix+"transmitted_total", s.Transmitted)
	e.Counter(prefix+"dropped_total", s.Dropped)
	e.Counter(prefix+"dropped_bytes_total", s.DroppedBytes)
	e.Counter(prefix+"trimmed_total", s.Trimmed)
	e.Counter(prefix+"down_drops_total", s.DownDrops)
	e.Counter(prefix+"aggregated_total", s.Aggregated)
	e.Gauge(prefix+"max_queue_bytes", s.MaxQueueBytes)
}

// pktQueue is a counted list of records linked through Packet.next: a
// port's per-priority FIFO (push, pop), a free list or a shard's return
// bin (pushFront, pop, prepend). A record sits in at most one list and has
// a nil next outside them, so no list grows an array or, drained, holds one.
type pktQueue struct {
	head, tail *Packet
	n          int
}

func (q *pktQueue) empty() bool { return q.n == 0 }

func (q *pktQueue) push(pkt *Packet) {
	if q.n == 0 {
		q.head = pkt
	} else {
		q.tail.next = pkt
	}
	q.tail = pkt
	q.n++
}

func (q *pktQueue) pushFront(pkt *Packet) {
	if q.n == 0 {
		q.tail = pkt
	}
	pkt.next, q.head = q.head, pkt
	q.n++
}

func (q *pktQueue) pop() *Packet {
	pkt := q.head
	q.head, pkt.next = pkt.next, nil
	if q.n--; q.n == 0 {
		q.head, q.tail = nil, nil
	}
	return pkt
}

// prepend moves r's records to the front of q and empties r.
func (q *pktQueue) prepend(r *pktQueue) {
	if r.n > 0 {
		if q.n == 0 {
			q.tail = r.tail
		}
		r.tail.next, q.head, q.n = q.head, r.head, q.n+r.n
		*r = pktQueue{}
	}
}

// walk calls fn on q's first n records and reports whether they are the
// whole list, ending at tail: Audit's walk of a list misuse cut or looped.
func (q *pktQueue) walk(fn func(*Packet)) bool {
	pkt, last, i := q.head, (*Packet)(nil), 0
	for ; i < q.n && pkt != nil; i++ {
		fn(pkt)
		pkt, last = pkt.next, pkt
	}
	return i == q.n && pkt == nil && last == q.tail
}

// Port is one output port: a two-priority byte-bounded queue feeding a
// transmitter with finite bandwidth and propagation delay.
type Port struct {
	sim   *Sim
	owner NodeID
	peer  Node
	// peerSim is the simulator driving the peer node — equal to sim except
	// across a shard boundary, where the propagation arrival becomes a
	// mailbox hand-off instead of a local schedule. Precomputed at
	// partition time so the per-packet check is one pointer compare.
	peerSim *Sim
	link    LinkConfig
	cfg     QueueConfig
	q       [2]pktQueue // index by Priority
	bytes   [2]int
	lossRNG *xrand.Rand
	faults  *FaultInjector
	down    bool
	// metaOf resolves snooped per-(flow, message, row) metadata for the
	// aggregation merge path; wired by Switch.attach when the owning
	// switch aggregates, nil otherwise.
	metaOf func(flow, msg, row uint32) (wire.MetaInfo, bool)
	Stats  PortStats
	// queueDepth has no PortStats twin, so it is a registry instrument
	// (nil, a free no-op, without a registry).
	queueDepth *obs.Histogram

	// txTable[size] is serialize's answer for every size up to an MTU,
	// shared by the sim's ports of this bandwidth (Sim.txTables).
	txTable []Time

	// busy is set from transmit start until the serialization end at the
	// reserved point (txAt, txKey) is processed: by its tx-done event once
	// txPlaced, else by settle. listed: the port is on sim.wire.
	busy, txPlaced, listed bool
	txAt                   Time
	txKey                  uint64

	// runs holds a host NIC's queued Host.SendRun entries (nil until the
	// first): one pointer, so Port stays in its 384-byte size class.
	runs *runQueue
}

// runQueue holds a port's queued runs in FIFO order. Each run keeps its
// place among single packets in the normal-priority FIFO as one pooled
// record flagged run, a copy of its packet 0, which becomes its last
// packet; the others are built from the pool only when the wire takes
// them (transmitNext). So the pool is sized by the wire, not by the
// messages waiting. waiting counts the run packets already enqueued
// (bytes, Stats, depth observed) and not yet built. The int32 counters
// and pktRun's size keep a host's first run at what it allocated before
// pktRun held a geometry table (packet_test.go's guard).
type runQueue struct {
	runs          []pktRun
	head, waiting int32
}

// pktRun is one Host.SendRun: payloads[next:] are its packets not yet
// built, geo their trim geometry.
type pktRun struct {
	payloads [][]byte
	next     int32
	geo      runGeometry
}

// runGeometry is a run's trim geometry (wire.TrimGeometry) by payload
// length, read at SendRun while the headers are in cache and stamped into
// each record the NIC builds. A message's data packets share Q and differ
// in length only at row ends, so a few (length, head boundary) entries
// cover it. A run they do not cover — a foreign or metadata payload, a
// second Q, one length with two boundaries, a fifth length, a length or
// boundary past 64 KiB — has no table (n = 0): each record reads its own
// header as the NIC builds it.
type runGeometry struct {
	lens, heads [4]uint16
	n, q        uint8
}

// add enters pl's geometry and reports whether the table still covers
// the run.
func (g *runGeometry) add(pl []byte) bool {
	head, q, ok := wire.TrimGeometry(pl)
	if !ok || g.n > 0 && int(g.q) != q || max(len(pl), head) > math.MaxUint16 {
		return false
	}
	n := uint16(len(pl))
	for i := range g.n {
		if g.lens[i] == n {
			return g.heads[i] == uint16(head)
		}
	}
	if int(g.n) == len(g.lens) {
		return false
	}
	g.lens[g.n], g.heads[g.n], g.q = n, uint16(head), uint8(q)
	g.n++
	return true
}

// stamp writes pkt's geometry, looked up by its payload's length, or
// read from its header when the table does not cover the run.
func (g *runGeometry) stamp(pkt *Packet) {
	n := len(pkt.Payload)
	for i := range g.n {
		if int(g.lens[i]) == n {
			pkt.trimHead, pkt.trimQ = uint32(g.heads[i]), g.q
			return
		}
	}
	pkt.stamp()
}

// runPacket builds packet i of run from s's pool, as a copy of tmpl that
// is in no list and is no run's place, stamped with its trim geometry.
func runPacket(s *Sim, tmpl *Packet, run *pktRun, i int) *Packet {
	pkt := s.NewPacket()
	home := pkt.home
	*pkt = *tmpl
	pkt.home, pkt.ownsPayload, pkt.unmarked, pkt.next, pkt.run = home, false, false, nil, false
	pl := run.payloads[i]
	pkt.Payload, pkt.Size, pkt.Seq = pl, len(pl)+wire.NetOverhead, tmpl.Seq+uint64(i)
	run.geo.stamp(pkt)
	return pkt
}

// live returns how many runs are queued (and places in the FIFO).
func (r *runQueue) live() int { return len(r.runs) - int(r.head) }

// build makes the head run's next packet, whose place is the record at
// the FIFO's front, and reports whether it was the run's last, which
// retires the run: the place becomes that packet, for the caller to pop.
func (r *runQueue) build(s *Sim, place *Packet) (*Packet, bool) {
	run := &r.runs[r.head]
	i := int(run.next)
	r.waiting--
	if run.next++; int(run.next) < len(run.payloads) {
		return runPacket(s, place, run, i), false
	}
	pl := run.payloads[i]
	place.Payload, place.Size, place.Seq, place.run = pl, len(pl)+wire.NetOverhead, place.Seq+uint64(i), false
	run.geo.stamp(place)
	*run = pktRun{} // drop the payload references
	if r.head++; int(r.head) == len(r.runs) {
		r.runs, r.head = r.runs[:0], 0
	}
	return place, true
}

func newPort(sim *Sim, owner NodeID, peer Node, link LinkConfig, cfg QueueConfig) *Port {
	if link.Bandwidth <= 0 {
		panic("netsim: link bandwidth must be positive")
	}
	p := &Port{sim: sim, owner: owner, peer: peer, peerSim: sim, link: link, cfg: cfg.withDefaults()}
	if p.txTable = sim.txTables[link.Bandwidth]; p.txTable == nil {
		p.txTable = make([]Time, wire.MTU+1)
		for size := range p.txTable {
			p.txTable[size] = Time(int64(size) * 8 * int64(Second) / link.Bandwidth)
		}
		if sim.txTables == nil {
			sim.txTables = make(map[int64][]Time)
		}
		sim.txTables[link.Bandwidth] = p.txTable
	}
	if p.cfg.LossRate > 0 {
		p.lossRNG = xrand.New(xrand.Seed(p.cfg.LossSeed, uint64(peer.ID())))
	}
	if r := sim.obs; r != nil {
		prefix := fmt.Sprintf("netsim.port.%d->%d.", owner, peer.ID())
		p.queueDepth = r.Histogram(prefix+"queue_depth_bytes", obs.BucketsBytes())
		r.AddSource(func(e obs.Emit) { st := p.stats(); st.emit(e, prefix) })
	}
	return p
}

// QueuedBytes returns the current total queue depth in bytes.
func (p *Port) QueuedBytes() int { return p.bytes[PrioNormal] + p.bytes[PrioHigh] }

// Backlog returns the packets this port admitted and has not finished
// transmitting: both queues (a queued run's packets not yet built
// included) plus the one on the wire. Between events,
// Stats.Enqueued == Stats.Transmitted + Backlog(); inside one,
// Stats.Transmitted may not yet count a serialization that ended with
// nothing queued behind it (stats() does).
func (p *Port) Backlog() int {
	n := p.q[PrioNormal].n + p.q[PrioHigh].n
	if p.runs != nil {
		n += int(p.runs.waiting) - p.runs.live() // a run's packets, not its place
	}
	if p.busy && !p.ended() {
		n++
	}
	return n
}

// stats returns Stats as of now, settled or not.
func (p *Port) stats() PortStats {
	st := p.Stats
	if p.ended() {
		st.Transmitted++
	}
	return st
}

// Peer returns the node at the far end of this port's link.
func (p *Port) Peer() NodeID { return p.peer.ID() }

// Enqueue admits a packet to the port. A down port discards everything;
// an attached FaultInjector may drop, clone, corrupt, or delay the packet
// before (or instead of) admission; admit applies the configured overflow
// policy and starts the transmitter if idle.
func (p *Port) Enqueue(pkt *Packet) {
	if p.down {
		p.Stats.DownDrops++
		p.sim.releasePacket(pkt)
		return
	}
	if p.faults != nil {
		p.faults.apply(pkt, p)
		return
	}
	p.admit(pkt)
}

func (p *Port) admit(pkt *Packet) {
	if p.down {
		// A reordered packet can surface after a flap began.
		p.Stats.DownDrops++
		p.sim.releasePacket(pkt)
		return
	}
	if p.lossRNG != nil && p.lossRNG.Float64() < p.cfg.LossRate {
		p.Stats.Dropped++
		p.Stats.DroppedBytes += pkt.Size
		p.sim.releasePacket(pkt)
		return
	}
	// Aggregation runs before the capacity check: a folded packet adds no
	// new queue entry, so it competes for no buffer space.
	if p.cfg.AggregateTrimmable && p.tryAggregate(pkt) {
		// The absorbed packet's terminal point: its payload has been folded
		// into the queued aggregate.
		p.sim.releasePacket(pkt)
		return
	}
	cap := p.cfg.CapacityBytes
	if pkt.Prio == PrioHigh {
		cap = p.cfg.HighCapacityBytes
	}
	if p.bytes[pkt.Prio]+pkt.Size > cap {
		// Overflow: trim if allowed and useful, otherwise drop. One header
		// parse decides; the payload is cut only if the trimmed packet fits
		// the high queue, and a trim that does not is dropped at its
		// trimmed size.
		if p.cfg.Mode == TrimOverflow && pkt.Prio == PrioNormal {
			if keep := pkt.trimLen(p.cfg.TrimTarget); keep < len(pkt.Payload) {
				p.Stats.Trimmed++
				if p.bytes[PrioHigh]+keep+wire.NetOverhead <= p.cfg.HighCapacityBytes {
					pkt.cut(keep)
					p.push(pkt)
					return
				}
				pkt.Size = keep + wire.NetOverhead
			}
		}
		p.Stats.Dropped++
		p.Stats.DroppedBytes += pkt.Size
		p.sim.releasePacket(pkt)
		return
	}
	p.push(pkt)
}

func (p *Port) push(pkt *Packet) {
	p.q[pkt.Prio].push(pkt)
	p.enqueued(pkt.Prio, pkt.Size)
}

// enqueued is push's per-packet half, for a packet of size bytes already
// in its queue (or counted in runs.waiting): bytes, stats and the depth
// observation, then the transmitter.
func (p *Port) enqueued(prio Priority, size int) {
	p.bytes[prio] += size
	p.Stats.Enqueued++
	depth := p.QueuedBytes()
	if depth > p.Stats.MaxQueueBytes {
		p.Stats.MaxQueueBytes = depth
	}
	p.queueDepth.Observe(int64(depth))
	if p.settle() {
		p.placeTxDone() // a packet now waits behind the wire
	} else if !p.busy {
		p.transmitNext()
	}
}

// transmitNext starts serializing the next queued packet. It reserves the
// key of the serialization end (tx-done) and schedules the arrival at once,
// under the key that event gives its first child. The event is placed only
// when a packet waits behind the wire, now or at a later push, or when the
// serialization takes no time (its point could sort before the cursor and
// read as passed); otherwise settle does its work: count the packet
// transmitted, idle the port.
func (p *Port) transmitNext() {
	prio := PrioHigh
	if p.q[PrioHigh].empty() {
		if p.normalEmpty() {
			p.busy = false
			return
		}
		prio = PrioNormal
	}
	q := &p.q[prio]
	pkt, last := q.head, true
	if pkt.run {
		pkt, last = p.runs.build(p.sim, pkt)
	}
	if last {
		q.pop()
	}
	p.bytes[prio] -= pkt.Size
	s := p.sim
	p.busy, p.txPlaced = true, false
	p.txAt = s.now + p.serialize(pkt.Size)
	p.txKey = s.nextKey()
	s.deliverAt(p, pkt, p.txAt+p.link.Delay, xrand.Seed(p.txKey, 0))
	if p.txAt == s.now || !p.q[PrioHigh].empty() || !p.normalEmpty() {
		p.placeTxDone()
	} else if !p.listed {
		p.listed = true
		s.wire = append(s.wire, p)
	}
}

// normalEmpty reports whether no normal-priority packet waits: the FIFO
// is empty, or holds only the places of runs whose enqueued packets are
// all built (inside SendRun's enqueue loop).
func (p *Port) normalEmpty() bool {
	q := &p.q[PrioNormal]
	return q.empty() || p.runs != nil && p.runs.waiting == 0 && q.n == p.runs.live()
}

// takesRun reports whether admit would queue every packet of a run of
// size bytes untouched and with no random draw: the port is up, has no
// faults, and has room for all of it. Runs leave host NICs only, whose
// hostQueue has no loss or aggregation.
func (p *Port) takesRun(size int) bool {
	return !p.down && p.faults == nil && p.bytes[PrioNormal]+size <= p.cfg.CapacityBytes
}

// serialize returns how long size bytes take on the wire,
// size·8·Second/Bandwidth: a table lookup up to an MTU, computed by that
// division at newPort (Bandwidth never changes after), and the division
// itself for a larger packet (an aggregate).
func (p *Port) serialize(size int) Time {
	if uint(size) < uint(len(p.txTable)) {
		return p.txTable[size]
	}
	return Time(int64(size) * 8 * int64(Second) / p.link.Bandwidth)
}

// placeTxDone places the tx-done event at the reserved point.
func (p *Port) placeTxDone() {
	p.txPlaced = true
	p.sim.placeAt(evTxDone, p.txAt, p.txKey, p, nil)
}

// ended reports whether a serialization whose tx-done event was never
// placed has reached its reserved point without being settled.
func (p *Port) ended() bool {
	return p.busy && !p.txPlaced && p.sim.passed(p.txAt, p.txKey)
}

// settle does what an unplaced tx-done event would have done once its
// point passed: count the packet transmitted and idle the port. It
// reports whether such a serialization is still in progress.
func (p *Port) settle() bool {
	if p.ended() {
		p.busy = false
		p.Stats.Transmitted++
	}
	return p.busy && !p.txPlaced
}

// Switch is an output-queued switch with a static forwarding table,
// written once by the topology builders after wiring. An entry holds one
// or more equal-cost next hops; multi-hop entries are load-balanced by a
// deterministic seeded flow hash (ECMP), so a flow's packets always take
// one path and same-seed runs pick identical paths. The table is only
// touched from the switch's own simulator, so sharding needs no lock.
type Switch struct {
	id    NodeID
	sim   *Sim
	cfg   QueueConfig
	ports map[NodeID]*Port // keyed by next-hop node id
	// ecmpKey is xrand.Seed(ecmpSeed, id), the flow hash's per-switch
	// prefix (see egress), mixed once at addSwitch.
	ecmpKey uint64
	// fwd[dst], indexed by host id (nothing addresses a switch), locates
	// dst's equal-cost set of ports, in hash bucket order, in fwdPorts;
	// destinations may share a set. fwdHops holds each port's next hop
	// (nextHops, for PathFor).
	fwd      []fwdEntry
	fwdPorts []*Port
	fwdHops  []NodeID
	// metaCache holds metadata snooped for the aggregation merge path
	// (nil until the first metadata packet passes an aggregating switch).
	metaCache map[aggMetaKey]wire.MetaInfo
	// RouteMisses counts packets with no route (dropped).
	RouteMisses int
}

// fwdEntry is one destination's slice of Switch.fwdPorts: n ports starting
// at off (n = 0: no route). A k = 8 fat tree's table is a kilobyte.
type fwdEntry struct{ off, n uint32 }

// ID implements Node.
func (s *Switch) ID() NodeID { return s.id }

func (s *Switch) attach(peer Node, link LinkConfig) {
	if _, dup := s.ports[peer.ID()]; dup {
		panic(fmt.Sprintf("netsim: duplicate link %d-%d", s.id, peer.ID()))
	}
	p := newPort(s.sim, s.id, peer, link, s.cfg)
	if s.cfg.AggregateTrimmable {
		p.metaOf = s.metaInfo
	}
	s.ports[peer.ID()] = p
	// A directly-connected host routes to itself.
	if _, ok := peer.(*Host); ok {
		s.route(peer.ID(), peer.ID()+1, s.hopSet(peer.ID()))
	}
}

// hopSet stores an equal-cost set of next hops, in hash bucket order, and
// returns the entry that points at it.
func (s *Switch) hopSet(hops ...NodeID) fwdEntry {
	e := fwdEntry{off: uint32(len(s.fwdPorts)), n: uint32(len(hops))}
	for _, hop := range hops {
		s.fwdPorts = append(s.fwdPorts, s.ports[hop])
		s.fwdHops = append(s.fwdHops, hop)
	}
	return e
}

// route points destinations lo..hi-1 at e, growing the table to reach them.
func (s *Switch) route(lo, hi NodeID, e fwdEntry) {
	if grow := int(hi) - len(s.fwd); grow > 0 {
		s.fwd = append(s.fwd, make([]fwdEntry, grow)...)
	}
	for dst := lo; dst < hi; dst++ {
		s.fwd[dst] = e
	}
}

// nextHops lists dst's equal-cost next hops, in hash bucket order; nil: no route.
func (s *Switch) nextHops(dst NodeID) []NodeID {
	if uint(dst) >= uint(len(s.fwd)) {
		return nil
	}
	e := s.fwd[dst]
	return s.fwdHops[e.off : e.off+e.n : e.off+e.n]
}

// egress is the forwarding decision for one flow: dst's table entry and,
// when that holds more than one equal-cost port, the ECMP flow hash
// indexing into it, so a flow's packets always leave through the same
// port. Nil means no route. The hash is the xrand.Seed mixer over (ECMP
// seed, switch, src, dst, flow), continued from the switch's ecmpKey;
// including the switch id decorrelates the choice made at successive tiers
// (the classic hash-polarization fix: without it, every core-facing switch
// would pick the same bucket index for a given flow). A power-of-two set
// takes the bucket by mask, which equals the modulo.
func (s *Switch) egress(src, dst NodeID, flow uint64) *Port {
	if uint(dst) >= uint(len(s.fwd)) {
		return nil
	}
	switch e := s.fwd[dst]; e.n {
	case 0:
		return nil
	case 1:
		return s.fwdPorts[e.off]
	default:
		h := xrand.SeedFrom(s.ecmpKey, uint64(src), uint64(dst), flow)
		if e.n&(e.n-1) == 0 {
			return s.fwdPorts[e.off+uint32(h)&(e.n-1)]
		}
		return s.fwdPorts[e.off+uint32(h%uint64(e.n))]
	}
}

// Port returns the output port toward a neighbour (for statistics).
func (s *Switch) Port(neighbour NodeID) *Port { return s.ports[neighbour] }

// Ports returns every output port in ascending neighbour-ID order (for
// per-switch or per-tier statistics aggregation).
func (s *Switch) Ports() []*Port {
	ids := make([]NodeID, 0, len(s.ports))
	//trimlint:allow determinism keys are sorted two lines down; map order never reaches the caller
	for id := range s.ports {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ports := make([]*Port, len(ids))
	for i, id := range ids {
		ports[i] = s.ports[id]
	}
	return ports
}

func (s *Switch) portTo(peer NodeID) *Port { return s.ports[peer] }

// Deliver implements Node: route and enqueue.
func (s *Switch) Deliver(pkt *Packet) {
	if s.cfg.AggregateTrimmable {
		s.snoopMeta(pkt)
	}
	port := s.egress(pkt.Src, pkt.Dst, pkt.FlowID)
	if port == nil {
		s.RouteMisses++
		s.sim.releasePacket(pkt)
		return
	}
	port.Enqueue(pkt)
}

// hostQueue is the generous NIC queue used by hosts; hosts do not drop in
// these experiments — the bottleneck is the fabric.
var hostQueue = QueueConfig{CapacityBytes: 64 << 20, HighCapacityBytes: 8 << 20}

// Host is an endpoint. Incoming packets go to Handler.
type Host struct {
	id     NodeID
	sim    *Sim
	uplink *Port
	// Handler receives every packet addressed to this host. It runs at
	// packet-arrival simulation time.
	Handler func(pkt *Packet)
	down    bool
	failed  bool
	// DownDrops counts packets the host dropped (in either direction)
	// while paused or crashed.
	DownDrops int
}

// ID implements Node.
func (h *Host) ID() NodeID { return h.id }

func (h *Host) attach(peer Node, link LinkConfig) {
	if h.uplink != nil {
		panic(fmt.Sprintf("netsim: host %d already attached", h.id))
	}
	h.uplink = newPort(h.sim, h.id, peer, link, hostQueue)
}

func (h *Host) portTo(peer NodeID) *Port {
	if h.uplink != nil && h.uplink.peer.ID() == peer {
		return h.uplink
	}
	return nil
}

// Deliver implements Node.
func (h *Host) Deliver(pkt *Packet) {
	if h.down {
		h.DownDrops++
		return
	}
	if h.Handler != nil {
		pkt.own() // the handler reads a trimmed payload's marked copy
		h.Handler(pkt)
	}
}

// Send transmits a packet out of the host's NIC. The source field is
// stamped automatically. A paused or crashed host silently drops its own
// sends: its peers observe silence, exactly what a crash looks like from
// the network. pkt must come from h.Sim().NewPacket (Send panics on any
// other record), and the fabric owns it from this call on.
//
// The payload is borrowed, never copied: from this call on its bytes are
// immutable. The fabric reads them in place at every hop and on every
// shard; a trimming switch keeps a view of the prefix and the receiving
// handler gets a marked copy of it, so nothing writes them. The caller
// may keep the slice and send it again (a retransmission) but must not
// write it again; the GC recycles the buffer once the last packet, view,
// duplicate or retransmit queue drops it. Send reads the trim geometry
// from the header of a packet a port may cut — normal priority, on a
// fabric whose switches trim (Port.admit) — and stamps it into the
// record, so trimming ports downstream never read the bytes.
func (h *Host) Send(pkt *Packet) {
	if pkt.Prio == PrioNormal && h.sim.trims {
		pkt.stamp()
	}
	h.send(pkt)
}

// send is Send of a record already stamped.
func (h *Host) send(pkt *Packet) {
	if h.uplink == nil {
		panic(fmt.Sprintf("netsim: host %d is not attached", h.id))
	}
	if pkt.home != h.sim {
		panic(fmt.Sprintf("netsim: host %d: Send takes a record from its own simulator's Sim.NewPacket", h.id))
	}
	if h.down {
		h.DownDrops++
		h.sim.releasePacket(pkt)
		return
	}
	pkt.Src = h.id
	h.uplink.Enqueue(pkt)
}

// SendRun sends one packet per payload, in order: the same as Send of
// tmpl with Payload = payloads[i], Size = len(payloads[i]) +
// wire.NetOverhead and Seq = tmpl.Seq + i, for every i — every event,
// statistic and export is identical. A normal-priority run that the
// uplink takes whole, untouched (Port.takesRun), waits in the NIC queue
// as one entry, one pooled record, and every other packet record is
// built only when the wire takes it; otherwise SendRun is that loop of Sends.
//
// Payloads are borrowed as with Send, and so is the outer slice: it is
// read until the last packet is built, so neither it nor the payloads may
// be written again. Each payload's trim geometry is read here, once, and
// stamped into its record (runGeometry), so trimming ports downstream
// never read its bytes.
func (h *Host) SendRun(tmpl Packet, payloads [][]byte) {
	run := pktRun{payloads: payloads}
	size, covered := 0, true
	for _, pl := range payloads {
		size += len(pl) + wire.NetOverhead
		covered = covered && run.geo.add(pl)
	}
	if !covered {
		run.geo = runGeometry{}
	}
	p := h.uplink
	if p == nil || h.down || tmpl.Prio != PrioNormal || !p.takesRun(size) {
		for i := range payloads {
			h.send(runPacket(h.sim, &tmpl, &run, i))
		}
		return
	}
	if len(payloads) == 0 {
		return
	}
	tmpl.Src = h.id
	place := runPacket(h.sim, &tmpl, &run, 0)
	place.run = true
	if p.runs == nil {
		p.runs = new(runQueue)
	}
	p.runs.runs = append(p.runs.runs, run)
	p.q[PrioNormal].push(place)
	for _, pl := range payloads {
		p.runs.waiting++
		p.enqueued(PrioNormal, len(pl)+wire.NetOverhead)
	}
}

// Fail crashes the host permanently: from now on it neither receives nor
// sends. Pending simulator timers owned by the host's transport still
// fire, but anything they try to send is discarded.
func (h *Host) Fail() {
	h.failed = true
	h.down = true
}

// Pause takes the host offline for d of simulated time (a GC stall, a
// kernel hiccup, a reboot), then brings it back unless Fail intervened.
func (h *Host) Pause(d Time) {
	h.down = true
	h.sim.After(d, func() {
		if !h.failed {
			h.down = false
		}
	})
}

// Down reports whether the host is currently offline.
func (h *Host) Down() bool { return h.down }

// Uplink returns the host NIC port (for statistics).
func (h *Host) Uplink() *Port { return h.uplink }

// Sim returns the simulator driving this host.
func (h *Host) Sim() *Sim { return h.sim }
