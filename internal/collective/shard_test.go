package collective

import (
	"reflect"
	"testing"

	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

// The sharded fat-tree matrix: the PR 8 equivalence/chaos matrix rerun
// on the partitioned engine. The contract is the tentpole's bit-identity
// guarantee one layer up: for every algorithm × fault scenario, the
// 2/4/8-shard runs must reproduce the 1-shard run exactly — averages,
// per-rank outcomes (completion times included), decode stats, and the
// canonical merged telemetry snapshot.

// shardedFatTreeWorkers builds a k=4 fat tree, partitions it into the
// given shard count, and only then builds one worker per host — stacks
// must bind to their shard's simulator.
func shardedFatTreeWorkers(t *testing.T, shards int, q netsim.QueueConfig,
	cfg transport.Config, s quant.Scheme) (*netsim.Engine, *netsim.Topology, []*Worker) {
	t.Helper()
	sim := netsim.NewSim()
	topo, err := netsim.NewFatTree(sim, netsim.FatTreeConfig{
		K: 4, HostLink: fast(), Queue: q, ECMPSeed: 77,
	}, netsim.WithRegistry(obs.New()))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := netsim.ShardTopology(topo, shards)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]*Worker, len(topo.Hosts))
	for i, h := range topo.Hosts {
		w, err := New(i, newStack(h, cfg), WithConfig(coreCfg(s)), WithMode(Trimmable))
		if err != nil {
			t.Fatal(err)
		}
		w.Deadline = 100 * netsim.Millisecond
		ws[i] = w
	}
	return eng, topo, ws
}

// runShardedFatTreeAllReduce is runFatTreeAllReduce driven through the
// sharded engine.
func runShardedFatTreeAllReduce(t *testing.T, alg Algorithm, sc fabricScenario,
	seed uint64, shards int) fabricOutcome {
	t.Helper()
	q := deepQ()
	q.AggregateTrimmable = true
	cfg := transport.Config{RTO: 100 * netsim.Microsecond, MaxRetries: 16}
	eng, topo, ws := shardedFatTreeWorkers(t, shards, q, cfg, quant.Sign)
	defer eng.Close()
	n := len(ws)
	faults := sc.faults
	faults.Seed = seed
	topo.Net.InjectFaults(0, netsim.SwitchIDBase, faults)

	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = intGrad(seed+uint64(i)+1, 1024)
	}
	want := exactMean(grads)
	res := fabricOutcome{avgs: make([][]float32, n), outcome: make([]rankOutcome, n)}
	err := AllReduce(alg, 3, 100, ws, grads,
		func(rank int, avg []float32, at netsim.Time) {
			res.avgs[rank] = avg
			res.outcome[rank].done = true
			res.outcome[rank].doneAt = at
			ok := true
			for i := range want {
				if avg[i] != want[i] {
					ok = false
					break
				}
			}
			res.outcome[rank].nmseOK = ok
		},
		func(rank int, err error) { res.outcome[rank].errStr = err.Error() })
	if err != nil {
		t.Fatalf("%s: AllReduce(%v): %v", sc.name, alg, err)
	}
	eng.RunUntil(netsim.Second)
	for rank := range res.outcome {
		if !res.outcome[rank].done && res.outcome[rank].errStr == "" {
			t.Fatalf("%s/%v/%d shards: rank %d neither completed nor errored — a hang",
				sc.name, alg, shards, rank)
		}
		if res.outcome[rank].done && !res.outcome[rank].nmseOK {
			t.Errorf("%s/%v/%d shards: rank %d completed with a wrong average",
				sc.name, alg, shards, rank)
		}
		if res.outcome[rank].errStr != "" {
			t.Errorf("%s/%v/%d shards: rank %d failed a survivable scenario: %s",
				sc.name, alg, shards, rank, res.outcome[rank].errStr)
		}
		res.outcome[rank].agg = ws[rank].AggStats
	}
	res.snap = eng.Snapshot()
	return res
}

// TestShardedFatTreeAllReduceMatrix reruns the fat-tree equivalence and
// chaos matrix on 2, 4, and 8 shards and requires every observable to
// match the 1-shard reference bit for bit.
func TestShardedFatTreeAllReduceMatrix(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, sc := range fabricScenarios(testing.Short()) {
			alg, sc := alg, sc
			t.Run(alg.String()+"/"+sc.name, func(t *testing.T) {
				ref := runShardedFatTreeAllReduce(t, alg, sc, 42, 1)
				for _, shards := range []int{2, 4, 8} {
					got := runShardedFatTreeAllReduce(t, alg, sc, 42, shards)
					if !reflect.DeepEqual(ref.avgs, got.avgs) {
						t.Errorf("%d shards: averages diverge from 1 shard", shards)
					}
					for rank := range ref.outcome {
						if ref.outcome[rank] != got.outcome[rank] {
							t.Errorf("%d shards: rank %d outcome diverged:\n 1 shard  %+v\n sharded  %+v",
								shards, rank, ref.outcome[rank], got.outcome[rank])
						}
					}
					if !reflect.DeepEqual(ref.snap, got.snap) {
						t.Errorf("%d shards: merged obs snapshots diverge from 1 shard", shards)
					}
				}
			})
		}
	}
}
