package netsim

import (
	"math"
	"reflect"
	"testing"
)

func specQueue() QueueConfig {
	return QueueConfig{CapacityBytes: 32 << 10, HighCapacityBytes: 128 << 10, Mode: TrimOverflow}
}

// validSpecs is one buildable spec per kind.
var validSpecs = []FabricSpec{
	{Kind: "star", N: 6, Link: fastLink(), Queue: specQueue()},
	{Kind: "dumbbell", N: 5, Link: fastLink(), Queue: specQueue()},
	{Kind: "ring", N: 4, Link: fastLink(), Queue: specQueue()},
	{Kind: "fattree", K: 4, Link: fastLink(), Queue: specQueue(), ECMPSeed: 9},
	{Kind: "leafspine", Leaves: 3, Spines: 2, HostsPerLeaf: 4, Oversub: 4, Link: fastLink(), Queue: specQueue(), ECMPSeed: 9},
}

// TestFabricSpecRejects: every spec a builder would refuse (or panic on)
// is refused by Validate, before a simulator exists, and by Build.
func TestFabricSpecRejects(t *testing.T) {
	ok := fastLink()
	for name, spec := range map[string]FabricSpec{
		"unknown kind":        {Kind: "torus", N: 4, Link: ok},
		"empty kind":          {N: 4, Link: ok},
		"star no hosts":       {Kind: "star", N: 0, Link: ok},
		"star no bandwidth":   {Kind: "star", N: 4},
		"dumbbell one host":   {Kind: "dumbbell", N: 1, Link: ok},
		"ring one host":       {Kind: "ring", N: 1, Link: ok},
		"ring neg bandwidth":  {Kind: "ring", N: 3, Link: LinkConfig{Bandwidth: -1}},
		"fattree odd k":       {Kind: "fattree", K: 3, Link: ok},
		"fattree k 0":         {Kind: "fattree", Link: ok},
		"fattree no link":     {Kind: "fattree", K: 4},
		"leafspine no leaves": {Kind: "leafspine", Spines: 2, HostsPerLeaf: 4, Link: ok},
		"leafspine no spines": {Kind: "leafspine", Leaves: 2, HostsPerLeaf: 4, Link: ok},
		"leafspine no hosts":  {Kind: "leafspine", Leaves: 2, Spines: 2, Link: ok},
		"leafspine neg over":  {Kind: "leafspine", Leaves: 2, Spines: 2, HostsPerLeaf: 2, Oversub: -1, Link: ok},
		"leafspine NaN over":  {Kind: "leafspine", Leaves: 2, Spines: 2, HostsPerLeaf: 2, Oversub: math.NaN(), Link: ok},
		"leafspine Inf over":  {Kind: "leafspine", Leaves: 2, Spines: 2, HostsPerLeaf: 2, Oversub: math.Inf(1), Link: ok},
		"leafspine thin":      {Kind: "leafspine", Leaves: 2, Spines: 2, HostsPerLeaf: 1, Oversub: 1e12, Link: ok},
		"leafspine no link":   {Kind: "leafspine", Leaves: 2, Spines: 2, HostsPerLeaf: 2},
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, spec)
		}
		if _, err := spec.Build(NewSim()); err == nil {
			t.Errorf("%s: Build accepted %+v", name, spec)
		}
	}
}

// TestFabricSpecSizesMatchBuild: Hosts and Racks are arithmetic, so they
// must agree with what Build constructs — including what ShardTopology
// accepts as the largest shard count.
func TestFabricSpecSizesMatchBuild(t *testing.T) {
	for _, spec := range validSpecs {
		topo, err := spec.Build(NewSim())
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if topo.Kind != spec.Kind {
			t.Errorf("built a %s from a %s spec", topo.Kind, spec.Kind)
		}
		if got := len(topo.Hosts); got != spec.Hosts() {
			t.Errorf("%s: Hosts() = %d, Build made %d", spec.Kind, spec.Hosts(), got)
		}
		if got := len(topo.Tiers[0].Switches); got != spec.Racks() {
			t.Errorf("%s: Racks() = %d, Build made %d", spec.Kind, spec.Racks(), got)
		}
		eng, err := ShardTopology(topo, spec.Racks())
		if err != nil {
			t.Errorf("%s: %d shards refused: %v", spec.Kind, spec.Racks(), err)
			continue
		}
		eng.Close()
	}
}

// TestFabricSpecBuildMatchesBuilders: a spec builds the same fabric as the
// builder it names — same hosts, same tiers, same equal-cost paths and
// same per-flow ECMP choice between every host pair.
func TestFabricSpecBuildMatchesBuilders(t *testing.T) {
	link, q := fastLink(), specQueue()
	direct := []*Topology{
		NewStar(NewSim(), 6, link, q),
		NewDumbbell(NewSim(), 4, 1, link, link, q),
		NewRing(NewSim(), 4, link, link, q),
	}
	ft, err := NewFatTree(NewSim(), FatTreeConfig{K: 4, HostLink: link, Queue: q, ECMPSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLeafSpine(NewSim(), LeafSpineConfig{
		Leaves: 3, Spines: 2, HostsPerLeaf: 4, Oversub: 4, HostLink: link, Queue: q, ECMPSeed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	direct = append(direct, ft, ls)
	for i, spec := range validSpecs {
		want := direct[i]
		got, err := spec.Build(NewSim())
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if len(got.Hosts) != len(want.Hosts) || len(got.Tiers) != len(want.Tiers) {
			t.Fatalf("%s: %d hosts in %d tiers, builder makes %d in %d",
				spec.Kind, len(got.Hosts), len(got.Tiers), len(want.Hosts), len(want.Tiers))
		}
		for j, tier := range want.Tiers {
			if got.Tiers[j].Name != tier.Name || len(got.Tiers[j].Switches) != len(tier.Switches) {
				t.Errorf("%s tier %d: %s×%d, builder makes %s×%d", spec.Kind, j,
					got.Tiers[j].Name, len(got.Tiers[j].Switches), tier.Name, len(tier.Switches))
			}
		}
		for _, a := range want.Hosts {
			for _, b := range want.Hosts {
				if !reflect.DeepEqual(got.PathsBetween(a.ID(), b.ID()), want.PathsBetween(a.ID(), b.ID())) {
					t.Fatalf("%s: paths %d->%d differ from the builder's", spec.Kind, a.ID(), b.ID())
				}
				if !reflect.DeepEqual(got.PathFor(a.ID(), b.ID(), 77), want.PathFor(a.ID(), b.ID(), 77)) {
					t.Fatalf("%s: ECMP path %d->%d differs from the builder's", spec.Kind, a.ID(), b.ID())
				}
			}
		}
		if up := got.Tiers[0].Switches[0].Ports(); spec.Kind == "leafspine" {
			wantUp := want.Tiers[0].Switches[0].Ports()
			for p := range up {
				if up[p].link != wantUp[p].link {
					t.Errorf("leafspine port %d link %+v, builder's %+v", p, up[p].link, wantUp[p].link)
				}
			}
		}
	}
}
