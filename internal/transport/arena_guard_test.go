package transport

import (
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/wire"
)

func guardStar(t *testing.T) (*netsim.Sim, *netsim.Topology) {
	t.Helper()
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, 2, fastLink(),
		netsim.QueueConfig{CapacityBytes: 1 << 20})
	return sim, star
}

// runArenaTransfer drives one trimmable transfer from host 0 to host 1 on
// an already-faulted star, with host 0's stack recycling payloads through
// arena, and asserts byte-correct completion.
func runArenaTransfer(t *testing.T, sim *netsim.Sim, star *netsim.Topology, arena *wire.Arena) *Stack {
	t.Helper()
	a, err := New(star.Hosts[0], WithArena(arena))
	if err != nil {
		t.Fatalf("New(WithArena): %v", err)
	}
	b := newStack(star.Hosts[1], Config{})

	enc, err := core.NewEncoderWith(core.WithConfig(coreConfig()), core.WithArena(arena))
	if err != nil {
		t.Fatal(err)
	}
	grad := gaussianGrad(21, 1<<12)
	msg, err := enc.Encode(1, 1, grad)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := core.NewDecoderWith(1, core.WithConfig(coreConfig()))
	b.Receiver = ReceiverFunc(func(_ netsim.NodeID, pl []byte) { _ = dec.Handle(pl) })
	done := false
	a.SendTrimmable(1, 1, msg.Meta, msg.Data,
		func(netsim.Time) { done = true },
		func(err error) { t.Fatalf("transfer failed: %v", err) })
	sim.RunUntil(5 * netsim.Second)
	if !done {
		t.Fatal("transfer did not complete")
	}
	rec, _, err := dec.Reconstruct(len(grad))
	if err != nil {
		t.Fatal(err)
	}
	if nm := vecmath.NMSE(grad, rec); nm > 1e-8 {
		t.Errorf("NMSE = %g — recycled buffers leaked into a completed transfer", nm)
	}
	return a
}

// TestArenaComposesWithAliasingFaults pins the generation-stamp contract
// (DESIGN.md §16): WithArena now composes with reordering and duplication.
// Every late toucher validates the payload's stamp, so the combination is
// legal, byte-correct, and — because recycling waits for the last in-flight
// reference — produces zero stale drops on a correct run.
func TestArenaComposesWithAliasingFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  netsim.FaultConfig
	}{
		{"reorder", netsim.FaultConfig{Seed: 1, ReorderRate: 0.3, ReorderDelay: 50 * netsim.Microsecond}},
		{"duplicate", netsim.FaultConfig{Seed: 1, DuplicateRate: 0.3}},
		{"reorder+duplicate", netsim.FaultConfig{Seed: 1, ReorderRate: 0.3,
			ReorderDelay: 50 * netsim.Microsecond, DuplicateRate: 0.3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, star := guardStar(t)
			star.Net.InjectFaults(0, netsim.SwitchIDBase, tc.cfg)
			a := runArenaTransfer(t, sim, star, wire.NewArena())
			if a.Stats.StaleDrops != 0 {
				t.Errorf("transport StaleDrops = %d on a correct run, want 0", a.Stats.StaleDrops)
			}
			if n := sim.StaleDrops(); n != 0 {
				t.Errorf("sim StaleDrops() = %d on a correct run, want 0", n)
			}
		})
	}
}

// TestAliasingFaultsAfterArena pins the reverse order: faults injected
// after a payload-recycling transport attaches are equally legal — the
// stamp protocol does not care which side arrived first.
func TestAliasingFaultsAfterArena(t *testing.T) {
	sim, star := guardStar(t)
	arena := wire.NewArena()
	if _, err := New(star.Hosts[0], WithArena(arena)); err != nil {
		t.Fatalf("New(WithArena): %v", err)
	}
	star.Net.InjectFaults(0, netsim.SwitchIDBase,
		netsim.FaultConfig{Seed: 1, ReorderRate: 0.3, ReorderDelay: 50 * netsim.Microsecond, DuplicateRate: 0.3})
	a := runArenaTransfer(t, sim, star, arena)
	if a.Stats.StaleDrops != 0 || sim.StaleDrops() != 0 {
		t.Errorf("stale drops on a correct run: transport %d, sim %d", a.Stats.StaleDrops, sim.StaleDrops())
	}
}

// TestArenaAllowedWithNonAliasingFaults checks loss and corruption still
// compose (they never did alias payload memory).
func TestArenaAllowedWithNonAliasingFaults(t *testing.T) {
	sim, star := guardStar(t)
	star.Net.InjectFaults(0, netsim.SwitchIDBase,
		netsim.FaultConfig{Seed: 1, LossGood: 0.01, GoodToBad: 0.01, BadToGood: 0.5, LossBad: 0.3, CorruptRate: 0.01})
	runArenaTransfer(t, sim, star, wire.NewArena())
}
