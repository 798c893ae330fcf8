package netsim

import "fmt"

// Topology builders used across the evaluation. Host IDs start at 0;
// switch IDs at max(1000, hosts) to keep them visually distinct in traces.
//
// Every builder returns the unified *Topology: the network, the hosts in
// rank order, and the switches grouped into named tiers. Experiments
// select topology × workload × collective × trim from one scenario
// matrix instead of wiring each fabric by hand; tests reach the routing
// layer through PathsBetween/PathFor.

// SwitchIDBase is the first NodeID used for switches by the builders.
const SwitchIDBase NodeID = 1000

// switchBase is the first switch id of a fabric with the given host count.
func switchBase(hosts int) NodeID { return max(SwitchIDBase, NodeID(hosts)) }

// switchIDs lists the switches' ids, in order.
func switchIDs(sws []*Switch) []NodeID {
	ids := make([]NodeID, len(sws))
	for i, sw := range sws {
		ids[i] = sw.id
	}
	return ids
}

// Tier names used by the builders. Star/dumbbell/ring fabrics have a
// single "edge" tier; the Clos fabrics add "agg"/"core" (fat tree) or
// "leaf"/"spine".
const (
	TierEdge  = "edge"
	TierAgg   = "agg"
	TierCore  = "core"
	TierLeaf  = "leaf"
	TierSpine = "spine"
)

// Tier is one named layer of switches.
type Tier struct {
	Name     string
	Switches []*Switch
}

// Topology is the unified result of every builder: the fabric plus the
// structural handles tests and experiments need.
type Topology struct {
	// Kind names the builder ("star", "dumbbell", "ring", "fattree",
	// "leafspine").
	Kind  string
	Net   *Network
	Hosts []*Host
	// Tiers lists switch layers bottom-up (edge before agg before core).
	Tiers []Tier
}

// Tier returns the switches of the named tier (nil if absent).
func (t *Topology) Tier(name string) []*Switch {
	for _, tier := range t.Tiers {
		if tier.Name == name {
			return tier.Switches
		}
	}
	return nil
}

// Switches returns every switch, tier by tier, bottom-up.
func (t *Topology) Switches() []*Switch {
	var all []*Switch
	for _, tier := range t.Tiers {
		all = append(all, tier.Switches...)
	}
	return all
}

// maxPathHops bounds path enumeration: no builder produces a host-to-host
// path longer than a fat tree's 6 links, so anything deeper is a loop.
const maxPathHops = 8

// PathsBetween enumerates every distinct path packets from host src may
// take to host dst, following all equal-cost branches of the forwarding
// tables. Each path lists node IDs from src to dst inclusive. The result
// is nil when dst is unreachable (or either endpoint is not a host).
func (t *Topology) PathsBetween(src, dst NodeID) [][]NodeID {
	h, ok := t.Net.Node(src).(*Host)
	if !ok || h.uplink == nil {
		return nil
	}
	if src == dst {
		return [][]NodeID{{src}}
	}
	var paths [][]NodeID
	var walk func(at Node, path []NodeID)
	walk = func(at Node, path []NodeID) {
		if len(path) > maxPathHops {
			return
		}
		path = append(path, at.ID())
		if at.ID() == dst {
			paths = append(paths, append([]NodeID(nil), path...))
			return
		}
		sw, ok := at.(*Switch)
		if !ok {
			return
		}
		for _, next := range sw.nextHops(dst) {
			if peer := t.Net.Node(next); peer != nil {
				walk(peer, path)
			}
		}
	}
	walk(h.uplink.peer, []NodeID{src})
	return paths
}

// PathFor returns the exact path a flow's packets take from host src to
// host dst — the same per-switch ECMP hash decisions Deliver makes — or
// nil when unroutable. Two same-seed topologies give identical answers.
func (t *Topology) PathFor(src, dst NodeID, flow uint64) []NodeID {
	h, ok := t.Net.Node(src).(*Host)
	if !ok || h.uplink == nil {
		return nil
	}
	path := []NodeID{src}
	at := h.uplink.peer
	for hops := 0; hops <= maxPathHops; hops++ {
		path = append(path, at.ID())
		if at.ID() == dst {
			return path
		}
		sw, ok := at.(*Switch)
		if !ok {
			return nil
		}
		port := sw.egress(src, dst, flow)
		if port == nil {
			return nil
		}
		at = port.peer
	}
	return nil
}

// NewStar creates a star of n hosts around one switch — the canonical
// incast scenario (§1's "collisions between different traffic flows").
// Options (e.g. WithRegistry) apply to the underlying Network before any
// port exists.
func NewStar(sim *Sim, n int, link LinkConfig, q QueueConfig, opts ...Option) *Topology {
	net := newNetwork(sim, opts...)
	sw := net.addSwitch(switchBase(n), q)
	t := &Topology{
		Kind: "star", Net: net,
		Tiers: []Tier{{Name: TierEdge, Switches: []*Switch{sw}}},
	}
	for i := 0; i < n; i++ {
		h := net.addHost(NodeID(i))
		net.connect(h.ID(), sw.ID(), link)
		t.Hosts = append(t.Hosts, h)
	}
	return t
}

// NewDumbbell creates the classic two-switch topology: nLeft hosts —
// switch A — bottleneck — switch B — nRight hosts. The inter-switch link
// is where cross traffic and gradient traffic collide. Hosts are ordered
// left block then right block; the edge tier is [left, right].
func NewDumbbell(sim *Sim, nLeft, nRight int, edge, bottleneck LinkConfig, q QueueConfig, opts ...Option) *Topology {
	net := newNetwork(sim, opts...)
	left := net.addSwitch(switchBase(nLeft+nRight), q)
	right := net.addSwitch(left.id+1, q)
	net.connect(left.ID(), right.ID(), bottleneck)
	t := &Topology{
		Kind: "dumbbell", Net: net,
		Tiers: []Tier{{Name: TierEdge, Switches: []*Switch{left, right}}},
	}
	for i := 0; i < nLeft; i++ {
		h := net.addHost(NodeID(i))
		net.connect(h.ID(), left.ID(), edge)
		t.Hosts = append(t.Hosts, h)
	}
	for i := 0; i < nRight; i++ {
		h := net.addHost(NodeID(nLeft + i))
		net.connect(h.ID(), right.ID(), edge)
		t.Hosts = append(t.Hosts, h)
	}
	// Each switch reaches the other side's hosts over the bottleneck.
	left.route(NodeID(nLeft), NodeID(nLeft+nRight), left.hopSet(right.id))
	right.route(0, NodeID(nLeft), right.hopSet(left.id))
	return t
}

// NewRing connects n hosts and n switches in a ring: host i hangs off
// switch i, and switch i links to switch (i+1) mod n — the natural
// topology for ring all-reduce experiments where each hop can congest
// independently. Edge links join host↔switch; trunk links join
// consecutive switches. Routing follows the shorter arc; ties go
// clockwise.
func NewRing(sim *Sim, n int, edge, trunk LinkConfig, q QueueConfig, opts ...Option) *Topology {
	if n < 2 {
		panic("netsim: ring needs at least 2 nodes")
	}
	net := newNetwork(sim, opts...)
	t := &Topology{Kind: "ring", Net: net}
	switches := make([]*Switch, n)
	for i := 0; i < n; i++ {
		switches[i] = net.addSwitch(switchBase(n)+NodeID(i), q)
		t.Hosts = append(t.Hosts, net.addHost(NodeID(i)))
	}
	t.Tiers = []Tier{{Name: TierEdge, Switches: switches}}
	for i := 0; i < n; i++ {
		net.connect(t.Hosts[i].ID(), switches[i].ID(), edge)
		// A 2-ring degenerates to a single trunk; adding the wrap-around
		// link again would duplicate it.
		if n == 2 && i == 1 {
			continue
		}
		net.connect(switches[i].ID(), switches[(i+1)%n].ID(), trunk)
	}
	// Shortest-arc routes, ties clockwise, over one set per direction.
	for i, sw := range switches {
		cw, ccw := sw.hopSet(switches[(i+1)%n].id), sw.hopSet(switches[(i-1+n)%n].id)
		for dst := 0; dst < n; dst++ {
			switch cwHops := (dst - i + n) % n; {
			case cwHops == 0: // the direct route attach installed
			case 2*cwHops <= n:
				sw.route(NodeID(dst), NodeID(dst+1), cw)
			default:
				sw.route(NodeID(dst), NodeID(dst+1), ccw)
			}
		}
	}
	return t
}

// FabricSpec describes a fabric as plain data: which builder, how big,
// which links and queues. A harness states the run it wants as a spec;
// Build is the one place a topology name becomes a fabric, and Hosts and
// Racks answer the sizes by arithmetic so a caller can check a workload
// fan or a shard count before any simulator exists.
type FabricSpec struct {
	// Kind is "star", "dumbbell", "ring", "fattree" or "leafspine".
	Kind string
	// N is the host count of a star, dumbbell or ring. A dumbbell puts
	// the last host alone on the right side; a ring gives each host its
	// own switch.
	N int
	// K is the fat-tree arity (k³/4 hosts).
	K int
	// Leaves, Spines and HostsPerLeaf size a leaf–spine fabric; Oversub
	// thins its uplinks (zero: 1, non-blocking; see leafUplink).
	Leaves, Spines, HostsPerLeaf int
	Oversub                      float64
	// Link is every host link, and the dumbbell bottleneck, the ring
	// trunks and a fat tree's fabric links; leaf–spine uplinks take its
	// delay and derive their bandwidth from it.
	Link  LinkConfig
	Queue QueueConfig
	// ECMPSeed salts the per-switch flow hash of the Clos fabrics.
	ECMPSeed uint64
}

// plan is the one switch on a topology name: it checks the spec against
// its builder's rules and returns the fabric's sizes and the call that
// builds it.
func (f FabricSpec) plan() (hosts, racks int, build func(*Sim, []Option) *Topology, err error) {
	hosts, minHosts := f.N, 2
	switch f.Kind {
	case "star":
		minHosts, racks = 1, 1
		build = func(sim *Sim, o []Option) *Topology { return NewStar(sim, f.N, f.Link, f.Queue, o...) }
	case "dumbbell":
		racks = 2
		build = func(sim *Sim, o []Option) *Topology { return NewDumbbell(sim, f.N-1, 1, f.Link, f.Link, f.Queue, o...) }
	case "ring":
		racks = f.N
		build = func(sim *Sim, o []Option) *Topology { return NewRing(sim, f.N, f.Link, f.Link, f.Queue, o...) }
	case "fattree":
		hosts, racks, build = FatTreeHosts(f.K), f.K*f.K/2, f.newFatTree
		if f.K < 2 || f.K%2 != 0 {
			err = fmt.Errorf("netsim: fat tree needs even k ≥ 2, got %d", f.K)
		}
	case "leafspine":
		var uplink LinkConfig
		uplink, err = f.leafUplink()
		hosts, minHosts, racks = f.Leaves*f.HostsPerLeaf, 1, f.Leaves
		build = func(sim *Sim, o []Option) *Topology { return f.newLeafSpine(sim, uplink, o) }
	default:
		return 0, 0, nil, fmt.Errorf("netsim: unknown topology %q (want star|dumbbell|ring|fattree|leafspine)", f.Kind)
	}
	if f.Link.Bandwidth <= 0 {
		err = fmt.Errorf("netsim: %s link bandwidth must be positive", f.Kind)
	} else if err == nil && hosts < minHosts {
		err = fmt.Errorf("netsim: a %s needs at least %d hosts, got %d", f.Kind, minHosts, hosts)
	}
	return hosts, racks, build, err
}

// Validate rejects a spec no builder accepts, with the rule it breaks.
func (f FabricSpec) Validate() error { _, _, _, err := f.plan(); return err }

// Hosts returns the host count Build produces for a valid spec.
func (f FabricSpec) Hosts() int { hosts, _, _, _ := f.plan(); return hosts }

// Racks returns the number of rack (bottom-tier) switches Build produces
// for a valid spec — the ceiling on ShardTopology's shard count.
func (f FabricSpec) Racks() int { _, racks, _, _ := f.plan(); return racks }

// Build validates the spec and constructs its fabric on sim.
func (f FabricSpec) Build(sim *Sim, opts ...Option) (*Topology, error) {
	_, _, build, err := f.plan()
	if err != nil {
		return nil, err
	}
	return build(sim, opts), nil
}

// PortTotals sums the port counters of the given switches; MaxQueueBytes
// is the deepest queue any of their ports saw.
func PortTotals(switches []*Switch) PortStats {
	var t PortStats
	for _, sw := range switches {
		for _, p := range sw.Ports() {
			s := p.stats()
			t.Enqueued += s.Enqueued
			t.Transmitted += s.Transmitted
			t.Dropped += s.Dropped
			t.DroppedBytes += s.DroppedBytes
			t.Trimmed += s.Trimmed
			t.DownDrops += s.DownDrops
			t.Aggregated += s.Aggregated
			t.MaxQueueBytes = max(t.MaxQueueBytes, s.MaxQueueBytes)
		}
	}
	return t
}
