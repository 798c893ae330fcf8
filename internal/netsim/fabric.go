package netsim

import (
	"fmt"
	"math"
)

// Clos fabric builders: k-ary fat tree and leaf–spine. These are the
// data-center topologies the paper's trimming story assumes — gradient
// traffic and background flows colliding inside a multi-tier fabric —
// scaled down to simulable sizes. Both are reached through
// FabricSpec.Build, which has already checked the spec, so a builder
// cannot fail. Both install ECMP route tables: every inter-rack
// destination has all equal-cost next hops registered, and the
// per-switch seeded flow hash (Switch.egress) picks one per flow, so
// runs are bit-identical across repeats while flows still spread.

// FatTreeConfig is the fat-tree description NewFatTree takes: FabricSpec's
// K, Link (as HostLink), Queue and ECMPSeed.
type FatTreeConfig struct {
	K        int
	HostLink LinkConfig
	Queue    QueueConfig
	ECMPSeed uint64
}

// NewFatTree builds FabricSpec{Kind: "fattree"} from cfg. It stays only
// for the benchmark harness (benchmark/fabric.go and benchmark/train.go),
// until a benchmark-only change moves them to FabricSpec and deletes it.
func NewFatTree(sim *Sim, cfg FatTreeConfig, opts ...Option) (*Topology, error) {
	return FabricSpec{Kind: "fattree", K: cfg.K, Link: cfg.HostLink, Queue: cfg.Queue, ECMPSeed: cfg.ECMPSeed}.Build(sim, opts...)
}

// FatTreeHosts returns the host count of a k-ary fat tree (k³/4).
func FatTreeHosts(k int) int { return k * k * k / 4 }

// newFatTree builds a k-ary fat tree with ECMP routing: K pods of K/2
// edge and K/2 aggregation switches each, (K/2)² core switches, and K³/4
// hosts (K/2 per edge switch). Every link is f.Link, so the tree is
// rearrangeably non-blocking.
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
func (f FabricSpec) newFatTree(sim *Sim, opts []Option) *Topology {
	k := f.K
	half := k / 2
	nEdge := k * half    // also the aggregation count
	nCore := half * half // (k/2)²
	edgeID := func(pod, e int) NodeID { return SwitchIDBase + NodeID(pod*half+e) }
	aggID := func(pod, a int) NodeID { return SwitchIDBase + NodeID(nEdge+pod*half+a) }
	coreID := func(j int) NodeID { return SwitchIDBase + NodeID(2*nEdge+j) }

	net := NewNetwork(sim, opts...)
	net.ecmpSeed = f.ECMPSeed
	t := &Topology{Kind: "fattree", Net: net}
	edge := make([]*Switch, 0, nEdge)
	agg := make([]*Switch, 0, nEdge)
	core := make([]*Switch, 0, nCore)

	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			edge = append(edge, net.AddSwitch(edgeID(pod, e), f.Queue))
		}
	}
	for pod := 0; pod < k; pod++ {
		for a := 0; a < half; a++ {
			agg = append(agg, net.AddSwitch(aggID(pod, a), f.Queue))
		}
	}
	for j := 0; j < nCore; j++ {
		core = append(core, net.AddSwitch(coreID(j), f.Queue))
	}

	// Hosts and host↔edge links; attach installs the edge switch's
	// directly-connected routes.
	for h := 0; h < FatTreeHosts(k); h++ {
		pod := h / (half * half)
		e := (h % (half * half)) / half
		t.Hosts = append(t.Hosts, net.AddHost(NodeID(h)))
		net.Connect(NodeID(h), edgeID(pod, e), f.Link)
	}
	// Edge↔agg (full bipartite per pod) and agg↔core links.
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				net.Connect(edgeID(pod, e), aggID(pod, a), f.Link)
			}
		}
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				net.Connect(aggID(pod, a), coreID(a*half+c), f.Link)
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
	return t
}

// leafUplink checks a leaf–spine spec's sizes and oversubscription and
// derives the leaf↔spine link: Link's delay, and the bandwidth that
// leaves each leaf Oversub times more host capacity than uplink capacity,
//
//	uplinkBW = HostsPerLeaf·hostBW / (Spines·Oversub)
//
// Oversub 1 (the zero-value default) is non-blocking; 4 means four hosts
// contend for each unit of uplink capacity under all-out load.
func (f FabricSpec) leafUplink() (LinkConfig, error) {
	if f.Leaves < 1 || f.Spines < 1 || f.HostsPerLeaf < 1 {
		return LinkConfig{}, fmt.Errorf("netsim: leaf–spine needs ≥1 leaves, spines, and hosts per leaf (got %d/%d/%d)",
			f.Leaves, f.Spines, f.HostsPerLeaf)
	}
	oversub := f.Oversub
	if oversub == 0 {
		oversub = 1
	}
	if !(oversub > 0) || math.IsInf(oversub, 1) {
		return LinkConfig{}, fmt.Errorf("netsim: oversubscription ratio must be positive and finite, got %g", oversub)
	}
	uplinkBW := int64(float64(f.HostsPerLeaf) * float64(f.Link.Bandwidth) /
		(float64(f.Spines) * oversub))
	if uplinkBW <= 0 {
		return LinkConfig{}, fmt.Errorf("netsim: oversubscription %g leaves no uplink bandwidth", oversub)
	}
	return LinkConfig{Bandwidth: uplinkBW, Delay: f.Link.Delay}, nil
}

// newLeafSpine builds a two-tier leaf–spine fabric with ECMP routing:
// every leaf connects to every spine over uplink (leafUplink's), and
// remote-leaf traffic hashes across all spines. Host h hangs
// off leaf h/HostsPerLeaf; leaf switch IDs start at SwitchIDBase, spines
// directly after. All inter-leaf paths are 4 links, intra-leaf 2.
func (f FabricSpec) newLeafSpine(sim *Sim, uplink LinkConfig, opts []Option) *Topology {
	leafID := func(l int) NodeID { return SwitchIDBase + NodeID(l) }
	spineID := func(s int) NodeID { return SwitchIDBase + NodeID(f.Leaves+s) }

	net := NewNetwork(sim, opts...)
	net.ecmpSeed = f.ECMPSeed
	t := &Topology{Kind: "leafspine", Net: net}
	leaves := make([]*Switch, f.Leaves)
	spines := make([]*Switch, f.Spines)
	for l := range leaves {
		leaves[l] = net.AddSwitch(leafID(l), f.Queue)
	}
	for s := range spines {
		spines[s] = net.AddSwitch(spineID(s), f.Queue)
	}
	for h := 0; h < f.Leaves*f.HostsPerLeaf; h++ {
		t.Hosts = append(t.Hosts, net.AddHost(NodeID(h)))
		net.Connect(NodeID(h), leafID(h/f.HostsPerLeaf), f.Link)
	}
	for l := 0; l < f.Leaves; l++ {
		for s := 0; s < f.Spines; s++ {
			net.Connect(leafID(l), spineID(s), uplink)
		}
	}
	for dst := 0; dst < len(t.Hosts); dst++ {
		dstID := NodeID(dst)
		dstLeaf := dst / f.HostsPerLeaf
		for l := 0; l < f.Leaves; l++ {
			if l == dstLeaf {
				continue // direct route installed by attach
			}
			for s := 0; s < f.Spines; s++ {
				leaves[l].AddRoute(dstID, spineID(s))
			}
		}
		for s := 0; s < f.Spines; s++ {
			spines[s].SetRoute(dstID, leafID(dstLeaf))
		}
	}

	t.Tiers = []Tier{
		{Name: TierLeaf, Switches: leaves},
		{Name: TierSpine, Switches: spines},
	}
	return t
}
