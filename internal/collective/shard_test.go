package collective

import (
	"fmt"
	"reflect"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

// The sharded fat-tree matrix: the PR 8 equivalence/chaos matrix rerun
// on the partitioned engine. The contract is netsim's bit-identity
// guarantee one layer up: for every algorithm × fault scenario, a plain
// Sim (what ddp.NewNetTrainer's trainer runs) and the 2/4/8-shard engines must
// reproduce the 1-shard run exactly — averages, per-rank outcomes
// (completion times included), decode stats, and the canonical merged
// telemetry snapshot.

// plainSim, as a shard count, leaves the fabric on the bare NewSim() it
// was built on: no ShardTopology, no Engine.
const plainSim = 0

// fatTreeRig is a k=4 fat tree with one worker per host, plus the calls
// that differ between a plain Sim and an Engine.
type fatTreeRig struct {
	topo     *netsim.Topology
	ws       []*Worker
	loop     interface{ RunUntil(netsim.Time) }
	snapshot func() obs.Snapshot
	close    func()
}

// shardedFatTreeWorkers builds a k=4 fat tree, partitions it into the
// given shard count (plainSim: not at all), and only then builds one
// worker per host — stacks must bind to their shard's simulator.
func shardedFatTreeWorkers(t *testing.T, shards int, q netsim.QueueConfig,
	cfg transport.Config, s quant.Scheme) fatTreeRig {
	t.Helper()
	sim := netsim.NewSim()
	reg := obs.New()
	topo, err := netsim.FabricSpec{
		Kind: "fattree",
		K:    4, Link: fast(), Queue: q, ECMPSeed: 77,
	}.Build(sim, netsim.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	rig := fatTreeRig{topo: topo, loop: sim, snapshot: reg.Snapshot, close: func() {}}
	if shards != plainSim {
		eng, err := netsim.ShardTopology(topo, shards)
		if err != nil {
			t.Fatal(err)
		}
		rig.loop, rig.snapshot, rig.close = eng, eng.Snapshot, eng.Close
	}
	if rig.ws, err = Bind(topo.Hosts, cfg, WithConfig(coreCfg(s)), WithMode(Trimmable)); err != nil {
		t.Fatal(err)
	}
	for _, w := range rig.ws {
		w.Deadline = 100 * netsim.Millisecond
	}
	return rig
}

// runShardedFatTreeAllReduce executes one 16-worker all-reduce of alg on a
// k=4 fat tree whose switches aggregate trimmable packets, with sc's
// faults on worker 0's host link, at the given shard count.
func runShardedFatTreeAllReduce(t *testing.T, alg Algorithm, sc fabricScenario,
	seed uint64, shards int) fabricOutcome {
	t.Helper()
	q := deepQ()
	q.AggregateTrimmable = true
	// The budget mirrors the star chaos matrix: small RTO so loss recovers
	// fast, deadline as the hang backstop. Every schedule touches worker
	// 0's faulty link at least once (it is a rank and, for the hierarchy
	// and parameter server, the root).
	cfg := transport.Config{RTO: 100 * netsim.Microsecond, MaxRetries: 16}
	rig := shardedFatTreeWorkers(t, shards, q, cfg, quant.Sign)
	defer rig.close()
	ws := rig.ws
	n := len(ws)
	faults := sc.faults
	faults.Seed = seed
	// Host 0 hangs off edge switch SwitchIDBase (pod 0, edge 0).
	rig.topo.Net.InjectFaults(0, netsim.SwitchIDBase, faults)

	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = intGrad(seed+uint64(i)+1, 1024)
	}
	want := exactMean(grads)
	outs, err := RunAllReduce(rig.loop, netsim.Second, alg, 3, 100, ws, grads)
	if outs == nil {
		t.Fatalf("%s: AllReduce(%v): %v", sc.name, alg, err)
	}
	if err := rig.topo.Net.Audit(); err != nil {
		t.Errorf("%s/%v/%d shards: %v", sc.name, alg, shards, err)
	}
	res := fabricOutcome{avgs: make([][]float32, n), outcome: make([]rankOutcome, n)}
	for rank, o := range outs {
		if o.Avg == nil && o.Err == nil {
			t.Fatalf("%s/%v/%d shards: rank %d neither completed nor errored — a hang",
				sc.name, alg, shards, rank)
		}
		if o.Err != nil {
			t.Errorf("%s/%v/%d shards: rank %d failed a survivable scenario: %v",
				sc.name, alg, shards, rank, o.Err)
		}
		res.avgs[rank] = o.Avg
		res.outcome[rank] = outcomeOf(o, want, ws[rank].AggStats)
		if o.Avg != nil && !res.outcome[rank].nmseOK {
			t.Errorf("%s/%v/%d shards: rank %d completed with a wrong average",
				sc.name, alg, shards, rank)
		}
	}
	res.snap = rig.snapshot()
	return res
}

// outcomeOf is what the determinism contract compares of one rank's
// Outcome: nmseOK says Avg is exactly want.
func outcomeOf(o Outcome, want []float32, agg core.Stats) rankOutcome {
	r := rankOutcome{done: o.Avg != nil, nmseOK: o.Avg != nil, agg: agg}
	if r.done {
		r.doneAt = o.At
	}
	if o.Err != nil {
		r.errStr = o.Err.Error()
	}
	for i := range o.Avg {
		r.nmseOK = r.nmseOK && o.Avg[i] == want[i]
	}
	return r
}

// TestShardedFatTreeAllReduceMatrix reruns the fat-tree equivalence and
// chaos matrix on a plain Sim and on 2, 4, and 8 shards and requires every
// observable to match the 1-shard reference bit for bit.
func TestShardedFatTreeAllReduceMatrix(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, sc := range fabricScenarios(testing.Short()) {
			alg, sc := alg, sc
			t.Run(alg.String()+"/"+sc.name, func(t *testing.T) {
				ref := runShardedFatTreeAllReduce(t, alg, sc, 42, 1)
				for _, shards := range []int{plainSim, 2, 4, 8} {
					got := runShardedFatTreeAllReduce(t, alg, sc, 42, shards)
					who := fmt.Sprintf("%d shards", shards)
					if shards == plainSim {
						who = "plain Sim"
					}
					if !reflect.DeepEqual(ref.avgs, got.avgs) {
						t.Errorf("%s: averages diverge from 1 shard", who)
					}
					for rank := range ref.outcome {
						if ref.outcome[rank] != got.outcome[rank] {
							t.Errorf("%s: rank %d outcome diverged:\n 1 shard  %+v\n got      %+v",
								who, rank, ref.outcome[rank], got.outcome[rank])
						}
					}
					if !reflect.DeepEqual(ref.snap, got.snap) {
						t.Errorf("%s: merged obs snapshots diverge from 1 shard", who)
					}
				}
			})
		}
	}
}
