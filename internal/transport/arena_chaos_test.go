package transport

import (
	"hash/fnv"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/wire"
)

// arenaDiffOutcome is everything observable about one chaos transfer that
// the arena-vs-borrowed bit-identity contract covers: the delivery stream (a
// running hash of every payload, in order), timings, and both stacks'
// stats.
type arenaDiffOutcome struct {
	doneAt    netsim.Time
	failed    bool
	delivered int
	digest    uint64
	txStats   Stats
	rxStats   Stats
}

// runArenaDiffTransfer ships two interleaved trimmable messages from host
// 0 to host 1 under reorder+duplicate faults, with or without an arena
// recycling host 0's payload buffers, and reports the outcome.
func runArenaDiffTransfer(t *testing.T, useArena bool, faults netsim.FaultConfig) arenaDiffOutcome {
	t.Helper()
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, 2,
		netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond},
		netsim.QueueConfig{CapacityBytes: 1 << 20, HighCapacityBytes: 1 << 20, Mode: netsim.TrimOverflow})
	star.Net.InjectFaults(0, netsim.SwitchIDBase, faults)

	cfg := Config{RTO: 100 * netsim.Microsecond, MaxRetries: 30}
	var arena *wire.Arena
	var opts []Opt
	encOpts := []core.Option{core.WithConfig(coreConfig())}
	if useArena {
		arena = wire.NewArena()
		opts = append(opts, WithArena(arena))
		encOpts = append(encOpts, core.WithArena(arena))
	}
	a, err := New(star.Hosts[0], append(opts, WithConfig(cfg))...)
	if err != nil {
		t.Fatal(err)
	}
	b := newStack(star.Hosts[1], cfg)

	var out arenaDiffOutcome
	h := fnv.New64a()
	b.Receiver = ReceiverFunc(func(_ netsim.NodeID, pl []byte) {
		out.delivered++
		h.Write(pl)
	})
	pending := 2
	onDone := func(at netsim.Time) {
		pending--
		if pending == 0 {
			out.doneAt = at
		}
	}
	onFail := func(error) { out.failed = true }
	for msgID := uint32(1); msgID <= 2; msgID++ {
		enc, err := core.NewEncoderWith(encOpts...)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := enc.Encode(1, msgID, gaussianGrad(uint64(30+msgID), 1<<12))
		if err != nil {
			t.Fatal(err)
		}
		a.SendTrimmable(1, msgID, msg.Meta, msg.Data, onDone, onFail)
	}
	sim.RunUntil(5 * netsim.Second)
	if out.doneAt == 0 && !out.failed {
		t.Fatal("transfer neither completed nor failed — a hang")
	}
	if a.Stats.StaleDrops != 0 || sim.StaleDrops() != 0 {
		t.Fatalf("correct run counted stale drops: transport %d, fabric %d",
			a.Stats.StaleDrops, sim.StaleDrops())
	}
	out.digest = h.Sum64()
	out.txStats = a.Stats
	out.rxStats = b.Stats
	return out
}

// TestArenaChaosBitIdentity is the differential pin for the tentpole: the
// stamped-arena fast path must be bit-identical to the borrowed path under
// every aliasing fault mix — same delivery stream, same timings, same
// stats — because recycling only ever happens after the last in-flight
// reference drains. Any divergence means a buffer was reused (or copied)
// at a different point in the trajectory.
func TestArenaChaosBitIdentity(t *testing.T) {
	for _, sc := range []struct {
		name   string
		faults netsim.FaultConfig
	}{
		{"reorder", netsim.FaultConfig{Seed: 9, ReorderRate: 0.4, ReorderDelay: 50 * netsim.Microsecond}},
		{"duplicate", netsim.FaultConfig{Seed: 9, DuplicateRate: 0.4}},
		{"reorder+duplicate", netsim.FaultConfig{Seed: 9, ReorderRate: 0.3,
			ReorderDelay: 50 * netsim.Microsecond, DuplicateRate: 0.3}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			borrowedPath := runArenaDiffTransfer(t, false, sc.faults)
			arenaPath := runArenaDiffTransfer(t, true, sc.faults)
			if borrowedPath != arenaPath {
				t.Errorf("arena path diverges from borrowed path:\n borrowed %+v\n arena    %+v", borrowedPath, arenaPath)
			}
			if borrowedPath.doneAt == 0 {
				t.Error("transfer failed instead of completing")
			}
			// Determinism of the arena path itself: same seed, same outcome.
			again := runArenaDiffTransfer(t, true, sc.faults)
			if arenaPath != again {
				t.Errorf("arena path diverged from itself on a same-seed rerun:\n first %+v\n again %+v", arenaPath, again)
			}
		})
	}
}
