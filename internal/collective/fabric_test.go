package collective

import (
	"reflect"
	"testing"

	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

// The fat-tree matrix: every all-reduce algorithm over a full k=4 fat
// tree (16 workers) with aggregating trim-capable switches, under fault
// scenarios on worker 0's host link. ECMP spreads each algorithm's flows
// across the fabric's equal-cost paths, so this pins three things at
// once: the schedules survive multi-tier routing, the per-flow hash
// keeps every transfer on one path (no intra-flow reordering beyond what
// the fault injector does), and a same-seed re-run is bit-identical all
// the way down to the telemetry snapshot.

// fatTreeWorkers builds one worker per host of a k=4 fat tree.
func fatTreeWorkers(t *testing.T, q netsim.QueueConfig, cfg transport.Config,
	s quant.Scheme) (*netsim.Sim, *netsim.Topology, []*Worker) {
	t.Helper()
	sim := netsim.NewSim()
	topo, err := netsim.NewFatTree(sim, netsim.FatTreeConfig{
		K: 4, HostLink: fast(), Queue: q, ECMPSeed: 77,
	})
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
	return sim, topo, ws
}

type fabricScenario struct {
	name   string
	faults netsim.FaultConfig
}

func fabricScenarios(short bool) []fabricScenario {
	all := []fabricScenario{
		{name: "clean"},
		{name: "corruption", faults: netsim.FaultConfig{CorruptRate: 0.25, CorruptBits: 4}},
		{name: "reordering", faults: netsim.FaultConfig{ReorderRate: 0.5, ReorderDelay: 100 * netsim.Microsecond}},
		{name: "burst-loss", faults: netsim.FaultConfig{GoodToBad: 0.05, BadToGood: 0.3, LossBad: 1}},
	}
	if short {
		return []fabricScenario{all[0], all[3]}
	}
	return all
}

// fabricOutcome is everything one fat-tree all-reduce run produces that
// the determinism contract covers.
type fabricOutcome struct {
	avgs    [][]float32
	outcome []rankOutcome
	snap    obs.Snapshot
}

// TestFatTreeAllReduceMatrix runs every algorithm × scenario twice with
// the same seed: each rank must deliver the exact bitwise average (Sign
// codec + integer gradients make float addition associative), and both
// runs must agree on every average, every decode stat, and the canonical
// obs snapshot — ECMP path choices included, since a single divergent
// path choice shifts queue telemetry.
func TestFatTreeAllReduceMatrix(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, sc := range fabricScenarios(testing.Short()) {
			alg, sc := alg, sc
			t.Run(alg.String()+"/"+sc.name, func(t *testing.T) {
				first := runShardedFatTreeAllReduce(t, alg, sc, 42, plainSim)
				again := runShardedFatTreeAllReduce(t, alg, sc, 42, plainSim)
				if !reflect.DeepEqual(first.avgs, again.avgs) {
					t.Error("averages differ across same-seed runs")
				}
				for rank := range first.outcome {
					if first.outcome[rank] != again.outcome[rank] {
						t.Errorf("rank %d diverged across same-seed runs:\n first %+v\n again %+v",
							rank, first.outcome[rank], again.outcome[rank])
					}
				}
				if !reflect.DeepEqual(first.snap, again.snap) {
					t.Error("obs snapshots differ across same-seed runs")
				}
			})
		}
	}
}

// TestFatTreeParamServerAggregates pins in-network aggregation on the
// multi-tier fabric: the parameter-server incast into rank 0 funnels all
// 15 senders through host 0's edge port, where matching aggregation keys
// must fold packets just as they do on the single-switch star.
func TestFatTreeParamServerAggregates(t *testing.T) {
	q := netsim.QueueConfig{
		CapacityBytes: 48 << 10, HighCapacityBytes: 8 << 20,
		Mode: netsim.TrimOverflow, AggregateTrimmable: true,
	}
	sim, topo, ws := fatTreeWorkers(t, q, transport.Config{}, quant.Sign)
	n := len(ws)
	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = intGrad(uint64(61+i), 1<<13)
	}
	want := exactMean(grads)
	avgs := make([][]float32, n)
	err := AllReduce(AlgParamServer, 9, 100, ws, grads,
		func(rank int, avg []float32, at netsim.Time) { avgs[rank] = avg },
		func(rank int, err error) { t.Errorf("rank %d: %v", rank, err) })
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	for rank, avg := range avgs {
		if avg == nil {
			t.Fatalf("rank %d incomplete", rank)
		}
		for i := range want {
			if avg[i] != want[i] {
				t.Fatalf("rank %d: coord %d = %v, want %v", rank, i, avg[i], want[i])
			}
		}
	}
	aggregated := 0
	for _, sw := range topo.Switches() {
		for _, p := range sw.Ports() {
			aggregated += p.Stats.Aggregated
		}
	}
	if aggregated == 0 {
		t.Fatal("parameter-server incast through aggregating fat tree folded no packets")
	}
}
