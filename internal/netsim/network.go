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
	// ECNThresholdBytes marks ECE on enqueue when the normal queue
	// exceeds this depth. Zero disables marking.
	ECNThresholdBytes int
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
	// attach creates this node's outgoing port toward peer. It reports
	// misuse (a host NIC already wired, a duplicate switch link) as an
	// error so NewLink can surface it without panicking.
	attach(peer Node, link LinkConfig) error
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

// NewNetwork returns an empty network driven by sim.
func NewNetwork(sim *Sim, opts ...Option) *Network {
	n := &Network{Sim: sim, nodes: make(map[NodeID]Node)}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Node returns the node with the given id, or nil.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

func (n *Network) register(node Node) error {
	if _, dup := n.nodes[node.ID()]; dup {
		return fmt.Errorf("netsim: duplicate node id %d", node.ID())
	}
	n.nodes[node.ID()] = node
	return nil
}

// NewHost creates a host endpoint, rejecting duplicate ids.
func (n *Network) NewHost(id NodeID) (*Host, error) {
	h := &Host{id: id, sim: n.Sim}
	if err := n.register(h); err != nil {
		return nil, err
	}
	n.Sim.obs.AddSource(func(e obs.Emit) {
		e.Counter(fmt.Sprintf("netsim.host.%d.down_drops_total", id), h.DownDrops)
	})
	return h, nil
}

// AddHost creates a host endpoint, panicking on a duplicate id (the
// test-convenience wrapper over NewHost).
func (n *Network) AddHost(id NodeID) *Host {
	h, err := n.NewHost(id)
	if err != nil {
		panic(err)
	}
	return h
}

// NewSwitch creates a switch whose ports use cfg, rejecting duplicate ids.
func (n *Network) NewSwitch(id NodeID, cfg QueueConfig) (*Switch, error) {
	sw := &Switch{
		id:       id,
		sim:      n.Sim,
		cfg:      cfg.withDefaults(),
		ports:    make(map[NodeID]*Port),
		routes:   make(map[NodeID][]NodeID),
		ecmpSeed: n.ecmpSeed,
	}
	if err := n.register(sw); err != nil {
		return nil, err
	}
	n.Sim.obs.AddSource(func(e obs.Emit) {
		e.Counter(fmt.Sprintf("netsim.switch.%d.route_misses_total", id), sw.RouteMisses)
	})
	return sw, nil
}

// AddSwitch creates a switch whose ports use cfg, panicking on a
// duplicate id (the test-convenience wrapper over NewSwitch).
func (n *Network) AddSwitch(id NodeID, cfg QueueConfig) *Switch {
	sw, err := n.NewSwitch(id, cfg)
	if err != nil {
		panic(err)
	}
	return sw
}

// NewLink wires a full-duplex link between two nodes, reporting unknown
// endpoints, self-links, non-positive bandwidth, and double-wiring (a
// host NIC already attached, a duplicate switch link) as errors.
func (n *Network) NewLink(a, b NodeID, link LinkConfig) error {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return fmt.Errorf("netsim: connect unknown nodes %d-%d", a, b)
	}
	if a == b {
		return fmt.Errorf("netsim: self-link at node %d", a)
	}
	if link.Bandwidth <= 0 {
		return fmt.Errorf("netsim: link %d-%d bandwidth must be positive", a, b)
	}
	if err := na.attach(nb, link); err != nil {
		return err
	}
	return nb.attach(na, link)
}

// Connect wires a full-duplex link between two nodes, panicking on
// misuse (the test-convenience wrapper over NewLink).
func (n *Network) Connect(a, b NodeID, link LinkConfig) {
	if err := n.NewLink(a, b, link); err != nil {
		panic(err)
	}
}

// PortStats counts what happened at one output port.
type PortStats struct {
	Enqueued      int
	Transmitted   int
	Dropped       int
	DroppedBytes  int
	Trimmed       int
	ECNMarked     int
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
	e.Counter(prefix+"ecn_marked_total", s.ECNMarked)
	e.Counter(prefix+"down_drops_total", s.DownDrops)
	e.Counter(prefix+"aggregated_total", s.Aggregated)
	e.Gauge(prefix+"max_queue_bytes", s.MaxQueueBytes)
}

// pktQueue is one priority's FIFO over a single backing array. A dequeue
// nils its slot and advances head rather than re-slicing the front away
// (which would leak the capacity behind it and regrow for the life of the
// port); a drained queue rewinds to the start of its array, and a push
// that finds the array full slides the live packets down over a dead front
// half before it would grow. Steady traffic therefore reuses one array
// sized to about twice the deepest backlog, and a drained queue holds no
// *Packet (TestPortQueueReleasesDequeued).
type pktQueue struct {
	pkts []*Packet
	head int
}

func (q *pktQueue) empty() bool { return q.head == len(q.pkts) }

// queued returns the resident packets in FIFO order (a view, not a copy).
func (q *pktQueue) queued() []*Packet { return q.pkts[q.head:] }

func (q *pktQueue) push(pkt *Packet) {
	if len(q.pkts) == cap(q.pkts) && q.head > 0 && q.head >= len(q.pkts)/2 {
		// At least half the array is dequeued slots: moving the live half
		// down costs no more than the slots it frees, so pushes stay O(1)
		// amortised without growing.
		n := copy(q.pkts, q.pkts[q.head:])
		clear(q.pkts[n:])
		q.pkts, q.head = q.pkts[:n], 0
	}
	q.pkts = append(q.pkts, pkt)
}

func (q *pktQueue) pop() *Packet {
	pkt := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	if q.head == len(q.pkts) {
		q.pkts, q.head = q.pkts[:0], 0
	}
	return pkt
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

	// busy is set from transmit start until the serialization end at the
	// reserved point (txAt, txKey) is processed: by its tx-done event once
	// txPlaced, else by settle. listed: the port is on sim.wire.
	busy, txPlaced, listed bool
	txAt                   Time
	txKey                  uint64
}

func newPort(sim *Sim, owner NodeID, peer Node, link LinkConfig, cfg QueueConfig) *Port {
	if link.Bandwidth <= 0 {
		panic("netsim: link bandwidth must be positive")
	}
	p := &Port{sim: sim, owner: owner, peer: peer, peerSim: sim, link: link, cfg: cfg.withDefaults()}
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
// transmitting: both queues plus the one on the wire. Between events,
// Stats.Enqueued == Stats.Transmitted + Backlog(); inside one,
// Stats.Transmitted may not yet count a serialization that ended with
// nothing queued behind it (stats() does).
func (p *Port) Backlog() int {
	n := len(p.q[PrioNormal].queued()) + len(p.q[PrioHigh].queued())
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
// before (or instead of) admission; admit applies ECN marking and the
// configured overflow policy and starts the transmitter if idle.
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
	// Aggregation runs before ECN marking and capacity checks: a folded
	// packet adds no new queue entry, so it neither signals congestion nor
	// competes for buffer space.
	if p.cfg.AggregateTrimmable && p.tryAggregate(pkt) {
		// The absorbed packet's terminal point: its payload has been folded
		// into the queued aggregate.
		p.sim.releasePacket(pkt)
		return
	}
	if p.cfg.ECNThresholdBytes > 0 && p.bytes[PrioNormal] >= p.cfg.ECNThresholdBytes {
		pkt.ECE = true
		p.Stats.ECNMarked++
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
	p.bytes[pkt.Prio] += pkt.Size
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
		if p.q[PrioNormal].empty() {
			p.busy = false
			return
		}
		prio = PrioNormal
	}
	pkt := p.q[prio].pop()
	p.bytes[prio] -= pkt.Size
	s := p.sim
	p.busy, p.txPlaced = true, false
	p.txAt = s.now + Time(int64(pkt.Size)*8*int64(Second)/p.link.Bandwidth)
	p.txKey = s.nextKey()
	s.deliverAt(p, pkt, p.txAt+p.link.Delay, xrand.Seed(p.txKey, 0))
	if p.txAt == s.now || !p.q[PrioHigh].empty() || !p.q[PrioNormal].empty() {
		p.placeTxDone()
	} else if !p.listed {
		p.listed = true
		s.wire = append(s.wire, p)
	}
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

// Switch is an output-queued switch with static route tables. A route
// table entry holds one or more equal-cost next hops; multi-hop entries
// are load-balanced by a deterministic seeded flow hash (ECMP), so a
// flow's packets always take one path and same-seed runs pick identical
// paths.
//
// routes and ports are the configuration, written by the topology
// builders; packets are forwarded through fwd, the two resolved into one
// destination-indexed table, so a hop costs an array index instead of two
// map probes.
type Switch struct {
	id       NodeID
	sim      *Sim
	cfg      QueueConfig
	ports    map[NodeID]*Port // keyed by next-hop node id
	routes   map[NodeID][]NodeID
	ecmpSeed uint64
	// fwd[dst-fwdBase] locates dst's equal-cost set, as output ports in hash
	// bucket order, inside fwdPorts (a nil *Port is a next hop that is not a
	// connected neighbour). Built by the first Deliver after any change to
	// routes or ports — each of which resets fwd to nil — and only ever
	// touched from the switch's own simulator, so sharding needs no lock.
	fwd      []fwdEntry
	fwdBase  NodeID
	fwdPorts []*Port
	// metaCache holds metadata snooped for the aggregation merge path
	// (nil until the first metadata packet passes an aggregating switch).
	metaCache map[aggMetaKey]wire.MetaInfo
	// RouteMisses counts packets with no route (dropped).
	RouteMisses int
}

// fwdEntry is one destination's slice of Switch.fwdPorts: n ports starting
// at off. Eight bytes, so a table over a fat tree's whole id range stays a
// few cache lines per pod.
type fwdEntry struct{ off, n uint32 }

// ID implements Node.
func (s *Switch) ID() NodeID { return s.id }

func (s *Switch) attach(peer Node, link LinkConfig) error {
	if _, dup := s.ports[peer.ID()]; dup {
		return fmt.Errorf("netsim: duplicate link %d-%d", s.id, peer.ID())
	}
	p := newPort(s.sim, s.id, peer, link, s.cfg)
	if s.cfg.AggregateTrimmable {
		p.metaOf = s.metaInfo
	}
	s.ports[peer.ID()] = p
	// A directly-connected peer routes to itself by default.
	s.routes[peer.ID()] = []NodeID{peer.ID()}
	s.fwd = nil
	return nil
}

// SetRoute directs traffic for dst through nextHop alone, replacing any
// previously installed next-hop set (which must be a connected neighbour
// by the time packets flow).
func (s *Switch) SetRoute(dst, nextHop NodeID) {
	s.routes[dst] = []NodeID{nextHop}
	s.fwd = nil
}

// AddRoute appends nextHop to dst's equal-cost next-hop set (ignoring
// exact duplicates). Insertion order is the hash bucket order, so
// builders must add hops deterministically.
func (s *Switch) AddRoute(dst, nextHop NodeID) {
	for _, h := range s.routes[dst] {
		if h == nextHop {
			return
		}
	}
	s.routes[dst] = append(s.routes[dst], nextHop)
	s.fwd = nil
}

// buildFwd resolves routes through ports into the forwarding table. Node
// ids are dense in every builder (hosts from 0, switches from
// SwitchIDBase), so the table spans the routed destinations' id range.
func (s *Switch) buildFwd() {
	s.fwd, s.fwdBase, s.fwdPorts = []fwdEntry{}, 0, nil // non-nil: built, even if empty
	if len(s.routes) == 0 {
		return
	}
	lo, hi, hops := NodeID(math.MaxInt), NodeID(math.MinInt), 0
	//trimlint:allow determinism min, max and a sum are order-independent
	for dst, next := range s.routes {
		lo, hi = min(lo, dst), max(hi, dst)
		hops += len(next)
	}
	s.fwd, s.fwdBase = make([]fwdEntry, hi-lo+1), lo
	s.fwdPorts = make([]*Port, 0, hops)
	//trimlint:allow determinism each destination fills its own table entry; order never shows in a decision
	for dst, next := range s.routes {
		s.fwd[dst-lo] = fwdEntry{off: uint32(len(s.fwdPorts)), n: uint32(len(next))}
		for _, hop := range next {
			s.fwdPorts = append(s.fwdPorts, s.ports[hop])
		}
	}
}

// egress is the forwarding decision for one flow: dst's table entry and,
// when that holds more than one equal-cost port, the ECMP hash (see
// ecmpHash) indexing into it, so a flow's packets always leave through the
// same port. Nil means no route.
func (s *Switch) egress(src, dst NodeID, flow uint64) *Port {
	if s.fwd == nil {
		s.buildFwd()
	}
	i := dst - s.fwdBase
	if i < 0 || int(i) >= len(s.fwd) {
		return nil
	}
	switch e := s.fwd[i]; e.n {
	case 0:
		return nil
	case 1:
		return s.fwdPorts[e.off]
	default:
		h := ecmpHash(s.ecmpSeed, s.id, src, dst, flow)
		return s.fwdPorts[e.off+uint32(h%uint64(e.n))]
	}
}

// ecmpHash is the deterministic ECMP flow hash: the xrand.Seed mixer over
// (seed, switch, src, dst, flow). Including the switch id decorrelates
// the choice made at successive tiers (the classic hash-polarization fix:
// without it, every core-facing switch would pick the same bucket index
// for a given flow).
func ecmpHash(seed uint64, sw, src, dst NodeID, flow uint64) uint64 {
	return xrand.Seed(seed, uint64(sw), uint64(src), uint64(dst), flow)
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

func (h *Host) attach(peer Node, link LinkConfig) error {
	if h.uplink != nil {
		return fmt.Errorf("netsim: host %d already attached", h.id)
	}
	h.uplink = newPort(h.sim, h.id, peer, link, hostQueue)
	return nil
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
		h.Handler(pkt)
	}
}

// Send transmits a packet out of the host's NIC. The source field is
// stamped automatically. A paused or crashed host silently drops its own
// sends: its peers observe silence, exactly what a crash looks like from
// the network.
//
// The payload is borrowed, never copied: from this call on its bytes are
// immutable. The fabric reads them in place at every hop and on every
// shard, and a trimming switch copies the kept prefix rather than write
// them (Packet.TrimTo), so the caller may keep the slice and send it again
// (a retransmission) but must not write it again; the GC recycles the
// buffer once the last packet, duplicate or retransmit queue drops it.
func (h *Host) Send(pkt *Packet) {
	if h.uplink == nil {
		panic(fmt.Sprintf("netsim: host %d is not attached", h.id))
	}
	if h.down {
		h.DownDrops++
		h.sim.releasePacket(pkt)
		return
	}
	pkt.Src = h.id
	h.uplink.Enqueue(pkt)
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
