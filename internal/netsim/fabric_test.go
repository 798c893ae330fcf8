package netsim

import (
	"bytes"
	"testing"

	"trimgrad/internal/obs"
	"trimgrad/internal/xrand"
)

func fatTree(t *testing.T, k int, q QueueConfig, opts ...Option) *Topology {
	t.Helper()
	sim := NewSim()
	topo, err := FabricSpec{
		Kind: "fattree", K: k, Link: fastLink(), Queue: q, ECMPSeed: 7,
	}.Build(sim, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func leafSpine(t *testing.T, spec FabricSpec) *Topology {
	t.Helper()
	spec.Kind = "leafspine"
	if spec.Link.Bandwidth == 0 {
		spec.Link = fastLink()
	}
	topo, err := spec.Build(NewSim())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestFatTreeShape(t *testing.T) {
	topo := fatTree(t, 4, QueueConfig{})
	if got := len(topo.Hosts); got != 16 {
		t.Fatalf("hosts = %d, want 16", got)
	}
	for name, want := range map[string]int{TierEdge: 8, TierAgg: 8, TierCore: 4} {
		if got := len(topo.Tier(name)); got != want {
			t.Errorf("%s switches = %d, want %d", name, got, want)
		}
	}
	if got := len(topo.Switches()); got != 20 {
		t.Errorf("total switches = %d, want 20", got)
	}
}

// TestFatTreeGoldenRoutes pins exact next-hop sets of the k=4 tree: the
// route-table layout is wire-visible behavior (it decides which ports
// congest), so a change here must be deliberate.
func TestFatTreeGoldenRoutes(t *testing.T) {
	topo := fatTree(t, 4, QueueConfig{})
	edge0 := topo.Tier(TierEdge)[0] // pod 0, hosts 0-1, id 1000
	agg0 := topo.Tier(TierAgg)[0]   // pod 0, id 1008
	core0 := topo.Tier(TierCore)[0] // id 1016

	cases := []struct {
		sw   *Switch
		dst  NodeID
		want []NodeID
	}{
		{edge0, 0, []NodeID{0}},                     // local host: direct
		{edge0, 2, []NodeID{1008, 1009}},            // same pod, other edge: ECMP over pod aggs
		{edge0, 15, []NodeID{1008, 1009}},           // other pod: same ECMP set
		{agg0, 1, []NodeID{1000}},                   // same pod: the host's edge switch
		{agg0, 15, []NodeID{1016, 1017}},            // other pod: ECMP over connected cores
		{core0, 0, []NodeID{1008}},                  // core 0 reaches pod 0 via agg 0
		{core0, 15, []NodeID{1014}},                 // ... and pod 3 via its agg 0 (id 1014)
		{topo.Tier(TierCore)[3], 0, []NodeID{1009}}, // core 3 hangs off each pod's agg 1
	}
	for _, c := range cases {
		got := c.sw.routes[c.dst]
		if len(got) != len(c.want) {
			t.Errorf("switch %d → host %d: next hops %v, want %v", c.sw.ID(), c.dst, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("switch %d → host %d: next hops %v, want %v", c.sw.ID(), c.dst, got, c.want)
				break
			}
		}
	}
}

// TestFatTreeAllPairsReachable checks every ordered host pair has at
// least one path, every enumerated path obeys the tier bound (≤ 6 links
// inter-pod, 4 intra-pod, 2 same-edge), and the flow-hash path is one of
// the enumerated ones.
func TestFatTreeAllPairsReachable(t *testing.T) {
	const k = 4
	topo := fatTree(t, k, QueueConfig{})
	half := k / 2
	for src := range topo.Hosts {
		for dst := range topo.Hosts {
			if src == dst {
				continue
			}
			paths := topo.PathsBetween(NodeID(src), NodeID(dst))
			if len(paths) == 0 {
				t.Fatalf("no path %d → %d", src, dst)
			}
			maxLinks := 6
			if src/(half*half) == dst/(half*half) {
				maxLinks = 4
				if (src%(half*half))/half == (dst%(half*half))/half {
					maxLinks = 2
				}
			}
			for _, p := range paths {
				if links := len(p) - 1; links != maxLinks {
					t.Fatalf("path %v from %d → %d has %d links, want %d", p, src, dst, links, maxLinks)
				}
				if p[0] != NodeID(src) || p[len(p)-1] != NodeID(dst) {
					t.Fatalf("path %v does not join %d → %d", p, src, dst)
				}
			}
			flowPath := topo.PathFor(NodeID(src), NodeID(dst), 1)
			found := false
			for _, p := range paths {
				if len(p) == len(flowPath) {
					same := true
					for i := range p {
						if p[i] != flowPath[i] {
							same = false
							break
						}
					}
					found = found || same
				}
			}
			if !found {
				t.Fatalf("PathFor %v not among PathsBetween %v", flowPath, paths)
			}
		}
	}
	// Inter-pod pair: 2 agg choices × 2 core choices = 4 distinct paths.
	if got := len(topo.PathsBetween(0, 15)); got != 4 {
		t.Errorf("inter-pod path count = %d, want 4", got)
	}
}

// TestFatTreeECMPSpread is the load-balancing statistic: many flows
// between one inter-pod host pair must spread across all equal-cost
// paths, and each flow must stick to exactly one path (same flow id →
// same path, so no intra-flow reordering).
func TestFatTreeECMPSpread(t *testing.T) {
	topo := fatTree(t, 4, QueueConfig{})
	const flows = 512
	firstAgg := map[NodeID]int{}
	core := map[NodeID]int{}
	for f := 0; f < flows; f++ {
		p := topo.PathFor(0, 15, uint64(f))
		if len(p) != 7 {
			t.Fatalf("flow %d path %v, want 6 links", f, p)
		}
		firstAgg[p[2]]++
		core[p[3]]++
		again := topo.PathFor(0, 15, uint64(f))
		for i := range p {
			if p[i] != again[i] {
				t.Fatalf("flow %d path changed between evaluations", f)
			}
		}
	}
	if len(firstAgg) != 2 || len(core) != 4 {
		t.Fatalf("spread used %d aggs and %d cores, want 2 and 4 (%v / %v)",
			len(firstAgg), len(core), firstAgg, core)
	}
	for id, n := range firstAgg {
		if n < flows/4 {
			t.Errorf("agg %d got %d/%d flows — hash badly skewed", id, n, flows)
		}
	}
	for id, n := range core {
		if n < flows/8 {
			t.Errorf("core %d got %d/%d flows — hash badly skewed", id, n, flows)
		}
	}
}

// TestFatTreeFlowFIFO sends a burst of same-flow packets across the tree
// and checks they arrive in order: per-flow ECMP pins one path, so a
// single flow can never be reordered by multipathing.
func TestFatTreeFlowFIFO(t *testing.T) {
	sim := NewSim()
	topo, err := FabricSpec{
		Kind: "fattree", K: 4, Link: fastLink(), Queue: QueueConfig{CapacityBytes: 1 << 20}, ECMPSeed: 3,
	}.Build(sim)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	topo.Hosts[15].Handler = func(p *Packet) { got = append(got, p.Seq) }
	for i := 0; i < 64; i++ {
		pkt := sim.NewPacket()
		pkt.Dst = 15
		pkt.Size = 1500
		pkt.FlowID = 42
		pkt.Seq = uint64(i)
		topo.Hosts[0].Send(pkt)
	}
	sim.Run()
	if len(got) != 64 {
		t.Fatalf("delivered %d/64", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("reordered: position %d carries seq %d", i, seq)
		}
	}
}

// TestPathForMatchesDeliveredPath samples random (src, dst, flow)
// triples on the k=4 fat tree and checks that the path PathFor predicts
// is the path the packet actually takes. The delivered path is
// reconstructed from per-port transmit counters: one packet sent alone
// must bump exactly the ports along the predicted path, each by one, and
// nothing else anywhere in the fabric.
func TestPathForMatchesDeliveredPath(t *testing.T) {
	sim := NewSim()
	topo, err := FabricSpec{
		Kind: "fattree", K: 4, Link: fastLink(), Queue: QueueConfig{CapacityBytes: 1 << 20}, ECMPSeed: 11,
	}.Build(sim)
	if err != nil {
		t.Fatal(err)
	}
	type edge struct{ from, to NodeID }
	// txCount snapshots every directed link's transmit counter — host
	// uplinks plus all switch ports (downlinks included).
	txCount := func() map[edge]int {
		m := map[edge]int{}
		for _, h := range topo.Hosts {
			p := h.Uplink()
			m[edge{p.owner, p.peer.ID()}] = p.Stats.Transmitted
		}
		for _, sw := range topo.Switches() {
			for _, p := range sw.Ports() {
				m[edge{p.owner, p.peer.ID()}] = p.Stats.Transmitted
			}
		}
		return m
	}
	rng := xrand.New(1311)
	n := len(topo.Hosts)
	for trial := 0; trial < 40; trial++ {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		flow := rng.Uint64()
		srcID, dstID := topo.Hosts[src].ID(), topo.Hosts[dst].ID()
		want := topo.PathFor(srcID, dstID, flow)
		if want == nil {
			t.Fatalf("trial %d: PathFor(%d, %d, %#x) unroutable", trial, srcID, dstID, flow)
		}
		before := txCount()
		delivered := 0
		topo.Hosts[dst].Handler = func(*Packet) { delivered++ }
		pkt := sim.NewPacket()
		pkt.Dst = dstID
		pkt.Size = 1500
		pkt.FlowID = flow
		topo.Hosts[src].Send(pkt)
		sim.Run()
		topo.Hosts[dst].Handler = nil
		if delivered != 1 {
			t.Fatalf("trial %d: delivered %d packets, want 1", trial, delivered)
		}
		after := txCount()
		total := 0
		for e, c := range after {
			total += c - before[e]
			_ = e
		}
		if total != len(want)-1 {
			t.Fatalf("trial %d: %d ports transmitted, want the %d hops of %v",
				trial, total, len(want)-1, want)
		}
		for i := 0; i+1 < len(want); i++ {
			e := edge{want[i], want[i+1]}
			if after[e]-before[e] != 1 {
				t.Fatalf("trial %d: hop %d→%d transmitted %d times, want 1 (path %v)",
					trial, want[i], want[i+1], after[e]-before[e], want)
			}
		}
	}
}

func TestLeafSpineShapeAndRoutes(t *testing.T) {
	topo := leafSpine(t, FabricSpec{Leaves: 4, Spines: 2, HostsPerLeaf: 4, ECMPSeed: 5})
	if got := len(topo.Hosts); got != 16 {
		t.Fatalf("hosts = %d, want 16", got)
	}
	if len(topo.Tier(TierLeaf)) != 4 || len(topo.Tier(TierSpine)) != 2 {
		t.Fatalf("tiers: %d leaves, %d spines", len(topo.Tier(TierLeaf)), len(topo.Tier(TierSpine)))
	}
	leaf0 := topo.Tier(TierLeaf)[0]
	// Remote host: ECMP over both spines (ids 1004, 1005); local direct.
	if hops := leaf0.routes[15]; len(hops) != 2 || hops[0] != 1004 || hops[1] != 1005 {
		t.Errorf("leaf0 → host 15 next hops %v, want [1004 1005]", hops)
	}
	if hops := leaf0.routes[0]; len(hops) != 1 || hops[0] != 0 {
		t.Errorf("leaf0 → host 0 next hops %v, want [0]", hops)
	}
	for src := range topo.Hosts {
		for dst := range topo.Hosts {
			if src == dst {
				continue
			}
			paths := topo.PathsBetween(NodeID(src), NodeID(dst))
			if len(paths) == 0 {
				t.Fatalf("no path %d → %d", src, dst)
			}
			want := 4 // host-leaf-spine-leaf-host
			if src/4 == dst/4 {
				want = 2
			}
			for _, p := range paths {
				if len(p)-1 != want {
					t.Fatalf("path %v from %d → %d: %d links, want %d", p, src, dst, len(p)-1, want)
				}
			}
		}
	}
	// Flows between one remote pair must use both spines.
	spines := map[NodeID]int{}
	for f := 0; f < 128; f++ {
		spines[topo.PathFor(0, 15, uint64(f))[2]]++
	}
	if len(spines) != 2 {
		t.Fatalf("spine spread %v, want both spines", spines)
	}
}

// TestLeafSpineOversubscription pins the uplink-bandwidth derivation:
// oversub = HostsPerLeaf·hostBW / (Spines·uplinkBW).
func TestLeafSpineOversubscription(t *testing.T) {
	host := LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}
	for _, tc := range []struct {
		oversub float64
		wantBW  int64
	}{
		{0, Gbps(20)}, // zero → 1:1, 4·10G down over 2 uplinks
		{1, Gbps(20)},
		{2, Gbps(10)},
		{4, Gbps(5)},
	} {
		topo := leafSpine(t, FabricSpec{
			Leaves: 2, Spines: 2, HostsPerLeaf: 4, Link: host, Oversub: tc.oversub,
		})
		leaf0 := topo.Tier(TierLeaf)[0]
		spine0 := topo.Tier(TierSpine)[0]
		if got := leaf0.Port(spine0.ID()).link.Bandwidth; got != tc.wantBW {
			t.Errorf("oversub %g: uplink bandwidth %d, want %d", tc.oversub, got, tc.wantBW)
		}
		if got := leaf0.Port(0).link.Bandwidth; got != host.Bandwidth {
			t.Errorf("oversub %g: host link bandwidth changed to %d", tc.oversub, got)
		}
	}
}

// TestFatTreeSameSeedDeterminism runs the same incast + background mix
// over two same-seed k=4 fat trees and requires byte-identical telemetry
// exports: per-flow path choices, queue dynamics, drops, and trims must
// all replay exactly.
func TestFatTreeSameSeedDeterminism(t *testing.T) {
	run := func() []byte {
		reg := obs.New()
		sim := NewSim()
		topo, err := FabricSpec{
			Kind: "fattree", K: 4,
			Link:     LinkConfig{Bandwidth: Gbps(10), Delay: 5 * Microsecond},
			Queue:    QueueConfig{CapacityBytes: 32 << 10, Mode: TrimOverflow},
			ECMPSeed: 11,
		}.Build(sim, WithRegistry(reg))
		if err != nil {
			t.Fatal(err)
		}
		w := Workload{Name: "incast+bg", Flows: append(Incast(len(topo.Hosts), 8).Flows,
			BackgroundMix(len(topo.Hosts), 2e5, 5e4, 99).Flows...)}
		cts := w.StartBackground(topo, 13)
		for i, f := range w.GradientFlows() {
			for p := 0; p < 32; p++ {
				pkt := sim.NewPacket()
				pkt.Dst = topo.Hosts[f.Dst].ID()
				pkt.Size = 1500
				pkt.FlowID = uint64(i + 1)
				topo.Hosts[f.Src].Send(pkt)
			}
		}
		sim.RunUntil(20 * Millisecond)
		for _, ct := range cts {
			ct.Stop()
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed fat-tree runs exported different telemetry")
	}
}

// TestFatTreeRejectsBadConfig pins the Clos builders' refusals (odd k,
// missing bandwidth, zero leaves, negative oversubscription) at Build.
func TestFatTreeRejectsBadConfig(t *testing.T) {
	for name, spec := range map[string]FabricSpec{
		"odd k":                  {Kind: "fattree", K: 3, Link: fastLink()},
		"zero bandwidth":         {Kind: "fattree", K: 4},
		"zero leaves":            {Kind: "leafspine", Spines: 1, HostsPerLeaf: 1, Link: fastLink()},
		"negative oversubscribe": {Kind: "leafspine", Leaves: 2, Spines: 2, HostsPerLeaf: 2, Link: fastLink(), Oversub: -1},
	} {
		if _, err := spec.Build(NewSim()); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestNetworkErrorVariants covers the error-returning construction API
// that the panicking AddHost/AddSwitch/Connect wrap.
func TestNetworkErrorVariants(t *testing.T) {
	net := NewNetwork(NewSim())
	if _, err := net.NewHost(1); err != nil {
		t.Fatal(err)
	}
	if _, err := net.NewHost(1); err == nil {
		t.Error("duplicate host id accepted")
	}
	if _, err := net.NewSwitch(1, QueueConfig{}); err == nil {
		t.Error("switch id colliding with host accepted")
	}
	if _, err := net.NewSwitch(1000, QueueConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := net.NewLink(1, 99, fastLink()); err == nil {
		t.Error("link to unknown node accepted")
	}
	if err := net.NewLink(1, 1, fastLink()); err == nil {
		t.Error("self-link accepted")
	}
	if err := net.NewLink(1, 1000, LinkConfig{Bandwidth: 0}); err == nil {
		t.Error("zero-bandwidth link accepted")
	}
	if err := net.NewLink(1, 1000, fastLink()); err != nil {
		t.Fatal(err)
	}
	if err := net.NewLink(1, 1000, fastLink()); err == nil {
		t.Error("double-wiring a host NIC accepted")
	}
	if _, err := net.NewHost(2); err != nil {
		t.Fatal(err)
	}
	if err := net.NewLink(2, 1000, fastLink()); err != nil {
		t.Fatal(err)
	}
	if err := net.NewLink(1000, 2, fastLink()); err == nil {
		t.Error("duplicate switch link accepted")
	}
}
