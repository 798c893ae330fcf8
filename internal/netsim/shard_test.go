package netsim

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"trimgrad/internal/obs"
	"trimgrad/internal/xrand"
)

// shardCounts is the matrix every differential below runs: 1 shard is
// the reference ordering, the rest must be bit-identical to it.
var shardCounts = []int{1, 2, 4, 8}

// ---------------------------------------------------------------------------
// Scheduler differential: the PR 5 interpreter, extended to the sharded
// engine. Programs are pure functions of a causal path hash instead of a
// shared operand stream, so the same program replays at any shard count
// (and event closures on different shard goroutines never share state).

// schedEntry is one event firing: its time, its causal key, and the path
// hash naming its position in the causal tree.
type schedEntry struct {
	at   Time
	key  uint64
	path uint64
}

// runShardScenario interprets the scenario derived from seed on a ring
// fabric partitioned into the given shard count and returns the merged
// (at, key)-ordered firing trace, the phase checkpoints, and the total
// processed count. Identical results across shard counts mean identical
// global firing order, clock trajectory, and pending counts.
func runShardScenario(t *testing.T, shards int, seed uint64) ([]schedEntry, []string, uint64) {
	t.Helper()
	sim := NewSim()
	link := LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}
	topo := NewRing(sim, 8, link, link, QueueConfig{})
	eng, err := ShardTopology(topo, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	perShard := make([][]schedEntry, shards)
	var spawn func(s *Sim, idx int, path uint64, depth int)
	spawn = func(s *Sim, idx int, path uint64, depth int) {
		d := delayFor(xrand.Seed(path, 0) % (1 << 24))
		s.After(d, func() {
			perShard[idx] = append(perShard[idx], schedEntry{at: s.now, key: s.ctxKey, path: path})
			if depth < 3 {
				for k, kn := uint64(0), xrand.Seed(path, 1)%4; k < kn; k++ {
					spawn(s, idx, xrand.Seed(path, 2+k), depth+1)
				}
			}
		})
	}

	// Root events round-robin across shards; their keys come from the
	// engine-shared root counter, so program position — not shard layout —
	// decides each key.
	rootCount := 0
	root := func(path uint64) {
		idx := rootCount % shards
		rootCount++
		spawn(eng.shards[idx].sim, idx, path, 0)
	}
	nRoots := 3 + int(seed%8)
	for i := 0; i < nRoots; i++ {
		root(xrand.Seed(seed, uint64(i)))
	}

	var marks []string
	phases := 2 + int(xrand.Seed(seed, 99)%5)
	for p := 0; p < phases; p++ {
		eng.RunUntil(eng.Now() + delayFor(xrand.Seed(seed, 200+uint64(p))%(1<<24)))
		marks = append(marks, fmt.Sprintf("phase %d now=%d pending=%d", p, eng.Now(), eng.Pending()))
		// Mid-run root scheduling after a deadline return, as in the
		// single-sim interpreter.
		if xrand.Seed(seed, 300+uint64(p))%2 == 0 {
			root(xrand.Seed(seed, 1000+uint64(p)))
		}
	}
	eng.Run()
	marks = append(marks, fmt.Sprintf("end now=%d pending=%d", eng.Now(), eng.Pending()))

	var all []schedEntry
	for _, tr := range perShard {
		all = append(all, tr...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		return all[i].key < all[j].key
	})
	return all, marks, eng.Processed()
}

func diffShardRuns(t *testing.T, shards int, seed uint64,
	wantTrace, gotTrace []schedEntry, wantMarks, gotMarks []string) {
	t.Helper()
	for i := 0; i < len(wantTrace) || i < len(gotTrace); i++ {
		w, g := schedEntry{}, schedEntry{}
		if i < len(wantTrace) {
			w = wantTrace[i]
		}
		if i < len(gotTrace) {
			g = gotTrace[i]
		}
		if w != g {
			t.Fatalf("seed %d: %d shards diverge from 1 shard at firing %d:\n  1 shard:  %+v\n  %d shards: %+v",
				seed, shards, i, w, shards, g)
		}
	}
	for i := 0; i < len(wantMarks) || i < len(gotMarks); i++ {
		w, g := "<none>", "<none>"
		if i < len(wantMarks) {
			w = wantMarks[i]
		}
		if i < len(gotMarks) {
			g = gotMarks[i]
		}
		if w != g {
			t.Fatalf("seed %d: %d shards checkpoint %d:\n  1 shard:  %s\n  %d shards: %s",
				seed, shards, i, w, shards, g)
		}
	}
}

// TestShardSchedulerDifferential is the tentpole's ordering pin:
// randomized causal-tree schedule programs must fire in the exact same
// global (at, key) order — with the same Now() trajectory, Pending()
// checkpoints, and Processed() totals — at every shard count.
func TestShardSchedulerDifferential(t *testing.T) {
	rng := xrand.New(2026)
	for trial := 0; trial < 40; trial++ {
		seed := rng.Uint64()
		refTrace, refMarks, refProcessed := runShardScenario(t, 1, seed)
		for _, shards := range shardCounts[1:] {
			trace, marks, processed := runShardScenario(t, shards, seed)
			diffShardRuns(t, shards, seed, refTrace, trace, refMarks, marks)
			if processed != refProcessed {
				t.Fatalf("seed %d: processed %d (1 shard) != %d (%d shards)",
					seed, refProcessed, processed, shards)
			}
		}
	}
}

// FuzzShardScheduler feeds arbitrary seeds through the scenario at every
// shard count.
func FuzzShardScheduler(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(0xdeadbeefcafe))
	f.Fuzz(func(t *testing.T, seed uint64) {
		refTrace, refMarks, refProcessed := runShardScenario(t, 1, seed)
		for _, shards := range shardCounts[1:] {
			trace, marks, processed := runShardScenario(t, shards, seed)
			diffShardRuns(t, shards, seed, refTrace, trace, refMarks, marks)
			if processed != refProcessed {
				t.Fatalf("seed %d: processed mismatch at %d shards", seed, shards)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Traffic differential: real packets over real fabrics, clean and under
// chaos, with every observable compared byte for byte across shard counts.

// delivery is one packet arrival at a host, as its handler saw it.
type delivery struct {
	At      Time
	Src     NodeID
	Flow    uint64
	Size    int
	Prio    Priority
	Trimmed bool
}

// trafficOutcome is everything a traffic run produces that the
// determinism contract covers.
type trafficOutcome struct {
	deliv     [][]delivery
	ports     map[string]PortStats
	jsonl     string
	now       Time
	processed uint64
}

// plainSim, as runShardTraffic's shard count, runs the workload on the bare
// NewSim() the topology was built on: no ShardTopology, no Engine.
const plainSim = 0

// runShardTraffic drives a randomized packet workload over the topology
// built by build, partitioned into the given shard count (or left on a
// plain Sim), and collects the full observable state. chaos adds
// duplication/reordering/burst-loss faults on host 0's access link plus a
// mid-run link flap on the first uplink.
func runShardTraffic(t *testing.T, shards int, chaos bool,
	build func(sim *Sim, reg *obs.Registry) *Topology) trafficOutcome {
	t.Helper()
	sim := NewSim()
	reg := obs.New()
	topo := build(sim, reg)
	run, snapshot, now := sim.Run, reg.Snapshot, sim.Now
	processed := func() uint64 { return sim.Processed }
	if shards != plainSim {
		eng, err := ShardTopology(topo, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		run, snapshot, now, processed = eng.Run, eng.Snapshot, eng.Now, eng.Processed
	}
	if chaos {
		topo.Net.InjectFaults(topo.Hosts[0].ID(), topo.Tiers[0].Switches[0].ID(), FaultConfig{
			Seed:          7,
			DuplicateRate: 0.15,
			ReorderRate:   0.25, ReorderDelay: 30 * Microsecond,
			GoodToBad: 0.05, BadToGood: 0.3, LossBad: 1,
		})
		topo.Net.FlapLink(topo.Tiers[0].Switches[0].ID(), topo.Tiers[1].Switches[0].ID(),
			120*Microsecond, 80*Microsecond)
	}

	n := len(topo.Hosts)
	out := trafficOutcome{deliv: make([][]delivery, n), ports: map[string]PortStats{}}
	for i, h := range topo.Hosts {
		i, h := i, h
		h.Handler = func(pkt *Packet) {
			out.deliv[i] = append(out.deliv[i], delivery{
				At: h.sim.Now(), Src: pkt.Src, Flow: pkt.FlowID,
				Size: pkt.Size, Prio: pkt.Prio, Trimmed: pkt.Trimmed,
			})
		}
	}

	// Randomized bursts: every host sends a burst each round to a
	// pseudorandom destination; high FlowID entropy spreads the load
	// across ECMP paths, and bursts into small queues force drops/trims.
	const rounds, burst = 6, 4
	for r := 0; r < rounds; r++ {
		for i, h := range topo.Hosts {
			h := h
			dst := topo.Hosts[int(xrand.Seed(42, uint64(r), uint64(i))%uint64(n-1)+uint64(i)+1)%n]
			flow := uint64(r*n + i)
			at := Time(r)*50*Microsecond + Time(i)*Microsecond
			h.Sim().At(at, func() {
				for b := 0; b < burst; b++ {
					pkt := h.Sim().NewPacket()
					pkt.Dst = dst.ID()
					pkt.Size = 1500
					pkt.FlowID = flow
					if flow%5 == 0 {
						pkt.Size = 200
						pkt.Prio = PrioHigh
					}
					h.Send(pkt)
				}
			})
		}
	}
	run()

	for _, sw := range topo.Switches() {
		for _, p := range sw.Ports() {
			out.ports[fmt.Sprintf("%d->%d", p.owner, p.peer.ID())] = p.Stats
		}
	}
	for _, h := range topo.Hosts {
		p := h.Uplink()
		out.ports[fmt.Sprintf("%d->%d", p.owner, p.peer.ID())] = p.Stats
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, snapshot()); err != nil {
		t.Fatal(err)
	}
	out.jsonl = buf.String()
	out.now = now()
	out.processed = processed()
	return out
}

func fatTreeFixture(sim *Sim, reg *obs.Registry) *Topology {
	topo, err := FabricSpec{
		Kind:     "fattree",
		K:        4,
		Link:     LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond},
		Queue:    QueueConfig{CapacityBytes: 6_000, HighCapacityBytes: 16_000, Mode: TrimOverflow},
		ECMPSeed: 77,
	}.Build(sim, WithRegistry(reg))
	if err != nil {
		panic(err)
	}
	return topo
}

func leafSpineFixture(sim *Sim, reg *obs.Registry) *Topology {
	topo, err := FabricSpec{
		Kind:   "leafspine",
		Leaves: 8, Spines: 2, HostsPerLeaf: 2,
		Link:     LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond},
		Oversub:  2,
		Queue:    QueueConfig{CapacityBytes: 6_000, HighCapacityBytes: 16_000, Mode: TrimOverflow},
		ECMPSeed: 99,
	}.Build(sim, WithRegistry(reg))
	if err != nil {
		panic(err)
	}
	return topo
}

// diffTraffic reports every observable in which got (labelled who)
// diverges from the 1-shard reference run.
func diffTraffic(t *testing.T, who string, ref, got trafficOutcome) {
	t.Helper()
	if !reflect.DeepEqual(ref.deliv, got.deliv) {
		t.Errorf("%s: delivery traces diverge from 1 shard", who)
	}
	if !reflect.DeepEqual(ref.ports, got.ports) {
		t.Errorf("%s: port stats diverge from 1 shard", who)
	}
	if ref.jsonl != got.jsonl {
		t.Errorf("%s: telemetry JSONL bytes diverge from 1 shard", who)
	}
	if ref.now != got.now || ref.processed != got.processed {
		t.Errorf("%s: clock/processed diverge: now %v vs %v, processed %d vs %d",
			who, ref.now, got.now, ref.processed, got.processed)
	}
}

// forEachTrafficCell runs check once per fabric × {clean, chaos} cell with
// that cell's 1-shard reference run — after making sure the reference
// actually moved packets and exported telemetry — and a function that
// reruns the cell at another shard count.
func forEachTrafficCell(t *testing.T,
	check func(t *testing.T, ref trafficOutcome, rerun func(shards int) trafficOutcome)) {
	fabrics := []struct {
		name  string
		build func(*Sim, *obs.Registry) *Topology
	}{
		{"fattree", fatTreeFixture},
		{"leafspine", leafSpineFixture},
	}
	for _, fab := range fabrics {
		for _, chaos := range []bool{false, true} {
			name := fab.name + "/clean"
			if chaos {
				name = fab.name + "/chaos"
			}
			fab, chaos := fab, chaos
			t.Run(name, func(t *testing.T) {
				ref := runShardTraffic(t, 1, chaos, fab.build)
				if len(ref.jsonl) == 0 {
					t.Fatal("reference run exported no telemetry")
				}
				total := 0
				for _, d := range ref.deliv {
					total += len(d)
				}
				if total == 0 {
					t.Fatal("reference run delivered nothing")
				}
				check(t, ref, func(shards int) trafficOutcome {
					return runShardTraffic(t, shards, chaos, fab.build)
				})
			})
		}
	}
}

// TestShardTrafficDifferential pins the full bit-identity contract on
// real fabrics: per-host delivery traces, every port's statistics, the
// merged telemetry JSONL bytes, the final clock, and the processed-event
// total must be identical at every shard count — clean and under chaos.
func TestShardTrafficDifferential(t *testing.T) {
	forEachTrafficCell(t, func(t *testing.T, ref trafficOutcome, rerun func(int) trafficOutcome) {
		for _, shards := range shardCounts[1:] {
			diffTraffic(t, fmt.Sprintf("%d shards", shards), ref, rerun(shards))
		}
	})
}

// TestShardPlainSimIdentity pins that there is one event order: the same
// workload on a bare NewSim() — no ShardTopology, no Engine — produces the
// same delivery traces, port statistics, JSONL bytes, clock, and processed
// count as the 1-shard engine, on every fabric, clean and under chaos.
func TestShardPlainSimIdentity(t *testing.T) {
	forEachTrafficCell(t, func(t *testing.T, ref trafficOutcome, rerun func(int) trafficOutcome) {
		diffTraffic(t, "plain Sim", ref, rerun(plainSim))
	})
}

// TestShardRunUntilSlices pins the state between RunUntil calls. A k=4
// fat tree with 5 µs links runs an all-to-all once in 1.7 µs slices —
// shorter than the lookahead window, so a call returns while packets
// are in flight across shard boundaries — and once in a single Run, on
// a plain Sim and at 1, 2 and 4 shards. Every delivery log must equal
// the plain Sim's single run; at every slice boundary Pending() must
// equal the plain Sim's at the same boundary and Network.Audit must be
// clean, so no hand-off is held back from either.
func TestShardRunUntilSlices(t *testing.T) {
	const slice = 1700 * Nanosecond
	run := func(shards int, sliced bool) (deliv [][]delivery, pending []int) {
		sim := NewSim()
		topo, err := FabricSpec{
			Kind:     "fattree",
			K:        4,
			Link:     LinkConfig{Bandwidth: Gbps(10), Delay: 5 * Microsecond},
			Queue:    QueueConfig{CapacityBytes: 6_000, HighCapacityBytes: 16_000, Mode: TrimOverflow},
			ECMPSeed: 31,
		}.Build(sim)
		if err != nil {
			t.Fatal(err)
		}
		runUntil, pend := sim.RunUntil, sim.Pending
		if shards != plainSim {
			eng, err := ShardTopology(topo, shards)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if shards > 1 && eng.Window() != 5*Microsecond {
				t.Fatalf("lookahead window = %v, want 5µs", eng.Window())
			}
			runUntil, pend = eng.RunUntil, eng.Pending
		}
		n := len(topo.Hosts)
		deliv = make([][]delivery, n)
		for i, h := range topo.Hosts {
			i, h := i, h
			h.Handler = func(pkt *Packet) {
				deliv[i] = append(deliv[i], delivery{
					At: h.sim.Now(), Src: pkt.Src, Flow: pkt.FlowID,
					Size: pkt.Size, Prio: pkt.Prio, Trimmed: pkt.Trimmed,
				})
			}
		}
		for fi, f := range AllToAll(n).GradientFlows() {
			src, dst, flow := topo.Hosts[f.Src], topo.Hosts[f.Dst].ID(), uint64(fi)
			src.Sim().At(Time(fi%7)*3*Microsecond, func() {
				for b := 0; b < 3; b++ {
					pkt := src.Sim().NewPacket()
					pkt.Dst, pkt.Size, pkt.FlowID = dst, 1500, flow
					src.Send(pkt)
				}
			})
		}
		if !sliced {
			runUntil(maxTime)
			if err := topo.Net.Audit(); err != nil {
				t.Fatal(err)
			}
			return deliv, nil
		}
		for deadline := slice; ; deadline += slice {
			runUntil(deadline)
			if err := topo.Net.Audit(); err != nil {
				t.Fatalf("after RunUntil(%v): %v", deadline, err)
			}
			pending = append(pending, pend())
			if pend() == 0 {
				return deliv, pending
			}
			if deadline > Second {
				t.Fatal("the all-to-all did not drain within a simulated second")
			}
		}
	}

	ref, _ := run(plainSim, false)
	total := 0
	for _, d := range ref {
		total += len(d)
	}
	if total == 0 {
		t.Fatal("reference run delivered nothing")
	}
	plainDeliv, plainPending := run(plainSim, true)
	if !reflect.DeepEqual(ref, plainDeliv) {
		t.Error("plain Sim: sliced delivery log diverges from a single Run")
	}
	if len(plainPending) < 10 {
		t.Fatalf("only %d slices; the run must span many windows", len(plainPending))
	}
	for _, shards := range []int{1, 2, 4} {
		for _, sliced := range []bool{false, true} {
			deliv, pending := run(shards, sliced)
			if !reflect.DeepEqual(ref, deliv) {
				t.Errorf("%d shards (sliced %v): delivery log diverges from the plain Sim", shards, sliced)
			}
			if sliced && !reflect.DeepEqual(plainPending, pending) {
				t.Errorf("%d shards: Pending() at slice boundaries diverges from the plain Sim:\n got %v\nwant %v",
					shards, pending, plainPending)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation guard: the per-shard pools (events, packets, mailboxes) must
// keep sharded steady-state traffic at the same ≤1 alloc/hop budget the
// single-shard fabric holds, including the cross-shard return leg that
// sends pooled packets back to their home shard.

func TestShardFabricHopAllocations(t *testing.T) {
	sim := NewSim()
	link := LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}
	topo := NewRing(sim, 8, link, link, QueueConfig{})
	eng, err := ShardTopology(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, h := range topo.Hosts {
		h.Handler = func(*Packet) {}
	}
	const pkts = 32
	// Every host floods its clockwise neighbor: one-directional traffic
	// over every rack boundary, the worst case for pool drain.
	send := func() {
		for j := 0; j < pkts; j++ {
			for i, h := range topo.Hosts {
				pkt := h.Sim().NewPacket()
				pkt.Dst = topo.Hosts[(i+1)%len(topo.Hosts)].ID()
				pkt.Size = 1500
				h.Send(pkt)
			}
		}
		eng.Run()
	}
	send() // warm the per-shard event, packet, queue, and mailbox pools
	// Each packet crosses three links: host→switch, switch→switch (the
	// rack boundary for inter-shard pairs), switch→host.
	const hops = pkts * 8 * 3
	avg := testing.AllocsPerRun(10, send)
	if perHop := avg / hops; perHop > 1 {
		t.Fatalf("%.2f allocs per packet hop (budget 1); %.1f per run", perHop, avg)
	}
}

// ---------------------------------------------------------------------------
// Constructor validation and the partition map.

func TestShardTopologyValidation(t *testing.T) {
	link := LinkConfig{Bandwidth: Gbps(10), Delay: Microsecond}

	t.Run("too-many-shards", func(t *testing.T) {
		sim := NewSim()
		topo := NewRing(sim, 4, link, link, QueueConfig{})
		_, err := ShardTopology(topo, 5)
		if err == nil {
			t.Fatal("5 shards over 4 racks must be rejected, not clamped")
		}
		for _, want := range []string{"5 shards", "4", "edge"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	})

	t.Run("zero-shards", func(t *testing.T) {
		sim := NewSim()
		topo := NewRing(sim, 4, link, link, QueueConfig{})
		if _, err := ShardTopology(topo, 0); err == nil {
			t.Fatal("0 shards must be rejected")
		}
	})

	t.Run("non-pristine-sim", func(t *testing.T) {
		sim := NewSim()
		topo := NewRing(sim, 4, link, link, QueueConfig{})
		sim.At(0, func() {})
		if _, err := ShardTopology(topo, 2); err == nil {
			t.Fatal("partitioning after events were scheduled must be rejected")
		}
	})

	t.Run("transport-before-partition", func(t *testing.T) {
		sim := NewSim()
		topo := NewRing(sim, 4, link, link, QueueConfig{})
		// What transport.New always does to its host.
		topo.Hosts[1].Handler = func(*Packet) {}
		if _, err := ShardTopology(topo, 2); err == nil {
			t.Fatal("partitioning after a transport registered must be rejected")
		}
	})

	t.Run("zero-cross-shard-delay", func(t *testing.T) {
		sim := NewSim()
		trunk := LinkConfig{Bandwidth: Gbps(10)} // Delay 0
		topo := NewRing(sim, 4, link, trunk, QueueConfig{})
		if _, err := ShardTopology(topo, 2); err == nil {
			t.Fatal("zero cross-shard delay leaves no conservative lookahead; must be rejected")
		}
	})

}

// TestShardForeignRecord: a host sends records of its own shard's pool
// only. One made by another shard's simulator — the base Sim a stack built
// before partitioning would keep — panics at Host.Send rather than race
// that shard's free list.
func TestShardForeignRecord(t *testing.T) {
	sim := NewSim()
	topo := fatTreeFixture(sim, nil)
	eng, err := ShardTopology(topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := topo.Hosts[len(topo.Hosts)-1]
	if h.Sim() == sim {
		t.Fatal("the last host should run on shard 1")
	}
	pkt := sim.NewPacket()
	pkt.Dst, pkt.Size = topo.Hosts[0].ID(), 100
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Sim.NewPacket") {
			t.Fatalf("Send of shard 0's record from shard 1: recovered %v, want a panic naming Sim.NewPacket", r)
		}
	}()
	h.Send(pkt)
}

func TestShardPartitionMap(t *testing.T) {
	sim := NewSim()
	topo := fatTreeFixture(sim, nil)
	eng, err := ShardTopology(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Window() != Microsecond {
		t.Fatalf("lookahead window = %v, want the 1µs min cross-shard delay", eng.Window())
	}
	assign := eng.Partition()
	if len(assign) != 4 {
		t.Fatalf("got %d shard assignments, want 4", len(assign))
	}
	seenSw := map[NodeID]int{}
	seenHost := map[NodeID]int{}
	for _, a := range assign {
		// k=4 fat tree over 4 shards: one pod (2 edges + 2 aggs + 1 core,
		// except core spillover) and its 4 hosts per shard.
		if len(a.Hosts) != 4 {
			t.Errorf("shard %d: %d hosts, want 4 (one pod)", a.Shard, len(a.Hosts))
		}
		for _, id := range a.Switches {
			seenSw[id]++
		}
		for _, id := range a.Hosts {
			seenHost[id]++
		}
	}
	for _, sw := range topo.Switches() {
		if seenSw[sw.ID()] != 1 {
			t.Errorf("switch %d assigned %d times", sw.ID(), seenSw[sw.ID()])
		}
	}
	for _, h := range topo.Hosts {
		if seenHost[h.ID()] != 1 {
			t.Errorf("host %d assigned %d times", h.ID(), seenHost[h.ID()])
		}
	}
	// Hosts must land with their rack switch.
	simOf := map[NodeID]int{}
	for _, a := range assign {
		for _, id := range a.Switches {
			simOf[id] = a.Shard
		}
		for _, id := range a.Hosts {
			simOf[id] = a.Shard
		}
	}
	for _, h := range topo.Hosts {
		if simOf[h.ID()] != simOf[h.Uplink().peer.ID()] {
			t.Errorf("host %d on shard %d but its rack switch %d on shard %d",
				h.ID(), simOf[h.ID()], h.Uplink().peer.ID(), simOf[h.Uplink().peer.ID()])
		}
	}
}
