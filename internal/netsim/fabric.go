package netsim

import (
	"fmt"
	"math"
)

// Clos fabric builders: k-ary fat tree and leaf–spine. These are the
// data-center topologies the paper's trimming story assumes — gradient
// traffic and background flows colliding inside a multi-tier fabric —
// scaled down to simulable sizes. Both install ECMP route tables: every
// inter-rack destination has all equal-cost next hops registered, and the
// per-switch seeded flow hash (Switch.egress) picks one per flow, so
// runs are bit-identical across repeats while flows still spread.

// FatTreeConfig parameterizes NewFatTree.
type FatTreeConfig struct {
	// K is the fat-tree arity: K pods of K/2 edge and K/2 aggregation
	// switches each, (K/2)² core switches, and K³/4 hosts (K/2 per edge
	// switch). K must be even and ≥ 2.
	K int
	// HostLink is every host↔edge link.
	HostLink LinkConfig
	// FabricLink is every switch↔switch link (edge↔agg, agg↔core). The
	// zero value reuses HostLink — a rearrangeably non-blocking fat tree.
	FabricLink LinkConfig
	// Queue configures every switch port.
	Queue QueueConfig
	// ECMPSeed salts the per-switch flow hash.
	ECMPSeed uint64
}

func (cfg FatTreeConfig) validate() error {
	if cfg.K < 2 || cfg.K%2 != 0 {
		return fmt.Errorf("netsim: fat tree needs even k ≥ 2, got %d", cfg.K)
	}
	if cfg.HostLink.Bandwidth <= 0 {
		return fmt.Errorf("netsim: fat tree host link bandwidth must be positive")
	}
	return nil
}

// FatTreeHosts returns the host count of a k-ary fat tree (k³/4).
func FatTreeHosts(k int) int { return k * k * k / 4 }

// NewFatTree builds a k-ary fat tree with ECMP routing.
//
// Host h lives in pod h/(k/2)², under edge switch (h mod (k/2)²)/(k/2).
// Switch IDs are allocated from SwitchIDBase tier by tier: k²/2 edge
// switches, then k²/2 aggregation switches (both in pod-major order),
// then (k/2)² core switches. Core switch j connects to aggregation
// switch j/(k/2) of every pod.
//
// Routing: an edge switch reaches non-local hosts through any of its
// pod's k/2 aggregation switches; an aggregation switch reaches same-pod
// hosts through the host's edge switch and other pods through any of its
// k/2 core uplinks; a core switch reaches each pod through the single
// aggregation switch wired to it. Inter-pod paths are 6 links, intra-pod
// 4, same-edge 2.
func NewFatTree(sim *Sim, cfg FatTreeConfig, opts ...Option) (*Topology, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := cfg.K
	fabricLink := cfg.FabricLink
	if fabricLink.Bandwidth == 0 {
		fabricLink = cfg.HostLink
	}
	half := k / 2
	nEdge := k * half    // also the aggregation count
	nCore := half * half // (k/2)²
	edgeID := func(pod, e int) NodeID { return SwitchIDBase + NodeID(pod*half+e) }
	aggID := func(pod, a int) NodeID { return SwitchIDBase + NodeID(nEdge+pod*half+a) }
	coreID := func(j int) NodeID { return SwitchIDBase + NodeID(2*nEdge+j) }

	opts = append(append([]Option(nil), opts...), WithECMPSeed(cfg.ECMPSeed))
	net := NewNetwork(sim, opts...)
	t := &Topology{Kind: "fattree", Net: net}
	edge := make([]*Switch, 0, nEdge)
	agg := make([]*Switch, 0, nEdge)
	core := make([]*Switch, 0, nCore)

	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			sw, err := net.NewSwitch(edgeID(pod, e), cfg.Queue)
			if err != nil {
				return nil, err
			}
			edge = append(edge, sw)
		}
	}
	for pod := 0; pod < k; pod++ {
		for a := 0; a < half; a++ {
			sw, err := net.NewSwitch(aggID(pod, a), cfg.Queue)
			if err != nil {
				return nil, err
			}
			agg = append(agg, sw)
		}
	}
	for j := 0; j < nCore; j++ {
		sw, err := net.NewSwitch(coreID(j), cfg.Queue)
		if err != nil {
			return nil, err
		}
		core = append(core, sw)
	}

	// Hosts and host↔edge links; attach installs the edge switch's
	// directly-connected routes.
	for h := 0; h < FatTreeHosts(k); h++ {
		pod := h / (half * half)
		e := (h % (half * half)) / half
		host, err := net.NewHost(NodeID(h))
		if err != nil {
			return nil, err
		}
		t.Hosts = append(t.Hosts, host)
		if err := net.NewLink(host.ID(), edgeID(pod, e), cfg.HostLink); err != nil {
			return nil, err
		}
	}
	// Edge↔agg (full bipartite per pod) and agg↔core links.
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				if err := net.NewLink(edgeID(pod, e), aggID(pod, a), fabricLink); err != nil {
					return nil, err
				}
			}
		}
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				if err := net.NewLink(aggID(pod, a), coreID(a*half+c), fabricLink); err != nil {
					return nil, err
				}
			}
		}
	}

	// Route tables. Only host destinations need entries: transports and
	// workloads address hosts, never switches.
	for dst := 0; dst < FatTreeHosts(k); dst++ {
		dstID := NodeID(dst)
		dstPod := dst / (half * half)
		dstEdge := (dst % (half * half)) / half
		for pod := 0; pod < k; pod++ {
			for e := 0; e < half; e++ {
				if pod == dstPod && e == dstEdge {
					continue // direct route installed by attach
				}
				for a := 0; a < half; a++ {
					edge[pod*half+e].AddRoute(dstID, aggID(pod, a))
				}
			}
			for a := 0; a < half; a++ {
				sw := agg[pod*half+a]
				if pod == dstPod {
					sw.SetRoute(dstID, edgeID(dstPod, dstEdge))
					continue
				}
				for c := 0; c < half; c++ {
					sw.AddRoute(dstID, coreID(a*half+c))
				}
			}
		}
		for j := 0; j < nCore; j++ {
			core[j].SetRoute(dstID, aggID(dstPod, j/half))
		}
	}

	t.Tiers = []Tier{
		{Name: TierEdge, Switches: edge},
		{Name: TierAgg, Switches: agg},
		{Name: TierCore, Switches: core},
	}
	return t, nil
}

// LeafSpineConfig parameterizes NewLeafSpine.
type LeafSpineConfig struct {
	// Leaves and Spines count the two switch tiers; every leaf connects
	// to every spine. HostsPerLeaf hosts hang off each leaf.
	Leaves, Spines, HostsPerLeaf int
	// HostLink is every host↔leaf link.
	HostLink LinkConfig
	// Oversub is the leaf oversubscription ratio: downlink capacity over
	// uplink capacity, HostsPerLeaf·hostBW / (Spines·uplinkBW). Each
	// leaf↔spine uplink's bandwidth is derived from it:
	//
	//	uplinkBW = HostsPerLeaf·hostBW / (Spines·Oversub)
	//
	// 1 (the zero-value default) is non-blocking; 4 means four hosts
	// contend for each unit of uplink capacity under all-out load.
	Oversub float64
	// UplinkDelay is the leaf↔spine propagation delay (zero reuses
	// HostLink.Delay).
	UplinkDelay Time
	// Queue configures every switch port.
	Queue QueueConfig
	// ECMPSeed salts the per-switch flow hash.
	ECMPSeed uint64
}

// uplink validates the configuration and derives the leaf↔spine link.
func (cfg LeafSpineConfig) uplink() (LinkConfig, error) {
	if cfg.Leaves < 1 || cfg.Spines < 1 || cfg.HostsPerLeaf < 1 {
		return LinkConfig{}, fmt.Errorf("netsim: leaf–spine needs ≥1 leaves, spines, and hosts per leaf (got %d/%d/%d)",
			cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf)
	}
	if cfg.HostLink.Bandwidth <= 0 {
		return LinkConfig{}, fmt.Errorf("netsim: leaf–spine host link bandwidth must be positive")
	}
	oversub := cfg.Oversub
	if oversub == 0 {
		oversub = 1
	}
	if !(oversub > 0) || math.IsInf(oversub, 1) {
		return LinkConfig{}, fmt.Errorf("netsim: oversubscription ratio must be positive and finite, got %g", oversub)
	}
	uplinkBW := int64(float64(cfg.HostsPerLeaf) * float64(cfg.HostLink.Bandwidth) /
		(float64(cfg.Spines) * oversub))
	if uplinkBW <= 0 {
		return LinkConfig{}, fmt.Errorf("netsim: oversubscription %g leaves no uplink bandwidth", oversub)
	}
	uplink := LinkConfig{Bandwidth: uplinkBW, Delay: cfg.UplinkDelay}
	if uplink.Delay == 0 {
		uplink.Delay = cfg.HostLink.Delay
	}
	return uplink, nil
}

// NewLeafSpine builds a two-tier leaf–spine fabric with ECMP routing:
// every leaf connects to every spine, remote-leaf traffic hashes across
// all spines, and the oversubscription knob thins the uplinks. Host h
// hangs off leaf h/HostsPerLeaf; leaf switch IDs start at SwitchIDBase,
// spines directly after. All inter-leaf paths are 4 links, intra-leaf 2.
func NewLeafSpine(sim *Sim, cfg LeafSpineConfig, opts ...Option) (*Topology, error) {
	uplink, err := cfg.uplink()
	if err != nil {
		return nil, err
	}
	leafID := func(l int) NodeID { return SwitchIDBase + NodeID(l) }
	spineID := func(s int) NodeID { return SwitchIDBase + NodeID(cfg.Leaves+s) }

	opts = append(append([]Option(nil), opts...), WithECMPSeed(cfg.ECMPSeed))
	net := NewNetwork(sim, opts...)
	t := &Topology{Kind: "leafspine", Net: net}
	leaves := make([]*Switch, cfg.Leaves)
	spines := make([]*Switch, cfg.Spines)
	for l := range leaves {
		sw, err := net.NewSwitch(leafID(l), cfg.Queue)
		if err != nil {
			return nil, err
		}
		leaves[l] = sw
	}
	for s := range spines {
		sw, err := net.NewSwitch(spineID(s), cfg.Queue)
		if err != nil {
			return nil, err
		}
		spines[s] = sw
	}
	for h := 0; h < cfg.Leaves*cfg.HostsPerLeaf; h++ {
		host, err := net.NewHost(NodeID(h))
		if err != nil {
			return nil, err
		}
		t.Hosts = append(t.Hosts, host)
		if err := net.NewLink(host.ID(), leafID(h/cfg.HostsPerLeaf), cfg.HostLink); err != nil {
			return nil, err
		}
	}
	for l := 0; l < cfg.Leaves; l++ {
		for s := 0; s < cfg.Spines; s++ {
			if err := net.NewLink(leafID(l), spineID(s), uplink); err != nil {
				return nil, err
			}
		}
	}
	for dst := 0; dst < len(t.Hosts); dst++ {
		dstID := NodeID(dst)
		dstLeaf := dst / cfg.HostsPerLeaf
		for l := 0; l < cfg.Leaves; l++ {
			if l == dstLeaf {
				continue // direct route installed by attach
			}
			for s := 0; s < cfg.Spines; s++ {
				leaves[l].AddRoute(dstID, spineID(s))
			}
		}
		for s := 0; s < cfg.Spines; s++ {
			spines[s].SetRoute(dstID, leafID(dstLeaf))
		}
	}

	t.Tiers = []Tier{
		{Name: TierLeaf, Switches: leaves},
		{Name: TierSpine, Switches: spines},
	}
	return t, nil
}
