package netsim

import (
	"strings"
	"testing"
)

func TestIncastWorkload(t *testing.T) {
	w := Incast(8, 4)
	if len(w.Flows) != 4 {
		t.Fatalf("flows = %d, want 4", len(w.Flows))
	}
	for i, f := range w.Flows {
		if f.Src != i || f.Dst != 7 || f.Class != FlowGradient {
			t.Errorf("flow %d = %+v, want src %d → dst 7 gradient", i, f, i)
		}
	}
	// Fan is clamped so the target never sends to itself.
	if got := len(Incast(4, 9).Flows); got != 3 {
		t.Errorf("clamped incast flows = %d, want 3", got)
	}
}

func TestAllToAllWorkload(t *testing.T) {
	w := AllToAll(4)
	if len(w.Flows) != 12 {
		t.Fatalf("flows = %d, want 12", len(w.Flows))
	}
	seen := map[[2]int]bool{}
	for _, f := range w.Flows {
		if f.Src == f.Dst {
			t.Errorf("self flow %+v", f)
		}
		seen[[2]int{f.Src, f.Dst}] = true
	}
	if len(seen) != 12 {
		t.Errorf("duplicate pairs: %d distinct", len(seen))
	}
}

func TestPermutationWorkload(t *testing.T) {
	w := Permutation(16, 7)
	if len(w.Flows) != 16 {
		t.Fatalf("flows = %d, want 16", len(w.Flows))
	}
	srcs, dsts := map[int]bool{}, map[int]bool{}
	for _, f := range w.Flows {
		if f.Src == f.Dst {
			t.Errorf("permutation has self flow %+v", f)
		}
		srcs[f.Src] = true
		dsts[f.Dst] = true
	}
	if len(srcs) != 16 || len(dsts) != 16 {
		t.Errorf("not a permutation: %d srcs, %d dsts", len(srcs), len(dsts))
	}
	// Same seed → same permutation; different seed → (almost surely) not.
	again := Permutation(16, 7)
	for i := range w.Flows {
		if w.Flows[i] != again.Flows[i] {
			t.Fatal("same-seed permutations differ")
		}
	}
}

func TestBackgroundMixAndMerge(t *testing.T) {
	w := BackgroundMix(8, 1000, 500, 3)
	mice, elephants := 0, 0
	for _, f := range w.Flows {
		switch f.Class {
		case FlowMouse:
			mice++
			if f.PacketSize != MousePacketSize {
				t.Errorf("mouse packet size %d", f.PacketSize)
			}
		case FlowElephant:
			elephants++
			if f.PacketSize != ElephantPacketSize {
				t.Errorf("elephant packet size %d", f.PacketSize)
			}
		default:
			t.Errorf("unexpected class %v", f.Class)
		}
		if f.Src == f.Dst {
			t.Errorf("self flow %+v", f)
		}
	}
	if mice != 8 || elephants != 2 {
		t.Errorf("mix = %d mice / %d elephants, want 8/2", mice, elephants)
	}

	m := Workload{Name: "combo", Flows: append(Incast(8, 2).Flows, w.Flows...)}
	if len(m.Flows) != 2+len(w.Flows) {
		t.Errorf("merged flows = %d", len(m.Flows))
	}
	if got := len(m.GradientFlows()); got != 2 {
		t.Errorf("gradient flows = %d, want 2", got)
	}
}

func TestStartBackgroundDrivesTraffic(t *testing.T) {
	sim := NewSim()
	topo := NewStar(sim, 4, fastLink(), QueueConfig{CapacityBytes: 1 << 20})
	recv := 0
	for _, h := range topo.Hosts {
		h.Handler = func(*Packet) { recv++ }
	}
	cts := BackgroundMix(4, 1e5, 1e5, 9).StartBackground(topo, 21)
	if len(cts) != 5 { // 4 mice + 1 elephant
		t.Fatalf("started %d generators, want 5", len(cts))
	}
	sim.RunUntil(Millisecond)
	for _, ct := range cts {
		ct.Stop()
	}
	sent := 0
	for _, ct := range cts {
		sent += ct.Sent
	}
	if sent == 0 || recv == 0 {
		t.Fatalf("background generated sent=%d recv=%d", sent, recv)
	}
	// Distinct FlowIDs per stream (ECMP spread).
	ids := map[uint64]bool{}
	for _, ct := range cts {
		ids[ct.FlowID] = true
	}
	if len(ids) != len(cts) {
		t.Errorf("flow ids not distinct: %v", ids)
	}
}

func TestParseWorkloadAndTopology(t *testing.T) {
	for _, name := range []string{"incast", "alltoall", "permutation"} {
		w, err := ParseWorkload(name, 8, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(w.Flows) == 0 {
			t.Errorf("%s: empty workload", name)
		}
	}
	if _, err := ParseWorkload("bogus", 8, 1); err == nil {
		t.Error("bogus workload accepted")
	}
	for _, spec := range validSpecs {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Kind, err)
		}
	}
	if err := (FabricSpec{Kind: "mesh", N: 4, Link: fastLink()}).Validate(); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestParseWorkloadCount(t *testing.T) {
	w, err := ParseWorkload("incast:4", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Flows) != 4 {
		t.Errorf("incast:4 flows = %d, want 4", len(w.Flows))
	}
	// No count keeps the full fan.
	w, err = ParseWorkload("incast", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Flows) != 15 {
		t.Errorf("incast flows = %d, want 15", len(w.Flows))
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	cases := []struct {
		name  string
		hosts int
		want  string // substring of the error
	}{
		{"bogus", 8, "unknown workload"},
		{"incast:abc", 8, "malformed count"},
		{"incast:", 8, "malformed count"},
		{"incast:1.5", 8, "malformed count"},
		{"incast:-3", 8, "must be positive"},
		{"incast:0", 8, "must be positive"},
		{"incast:8", 8, "exceeds the 7 hosts"},
		{"alltoall:4", 8, "takes no count"},
		{"permutation:2", 8, "takes no count"},
		{"incast", 1, "at least 2 hosts"},
		{"alltoall", 0, "at least 2 hosts"},
	}
	for _, tc := range cases {
		_, err := ParseWorkload(tc.name, tc.hosts, 1)
		if err == nil {
			t.Errorf("ParseWorkload(%q, %d) accepted", tc.name, tc.hosts)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseWorkload(%q, %d) = %q, want substring %q",
				tc.name, tc.hosts, err, tc.want)
		}
	}
}
