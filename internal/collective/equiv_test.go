package collective

import (
	"reflect"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/xrand"
)

// The cross-algorithm equivalence matrix. Sign with its full-precision
// 31-bit tail decodes any float32 exactly, and small integer gradients
// keep every partial sum exactly representable, so float addition is
// associative on this data: every algorithm — whatever order it sums in,
// with or without an aggregating switch folding packets in flight — must
// produce the *bit-identical* average.

// intGrad draws integer-valued coordinates in [−32, 32]: with ≤8 workers
// every partial sum stays ≤256, exact in float32 regardless of order.
func intGrad(seed uint64, n int) []float32 {
	r := xrand.New(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(int(uint32(r.Uint64()>>32)%65) - 32)
	}
	return v
}

// equivResult is everything one all-reduce run produces that the
// determinism contract covers.
type equivResult struct {
	avgs  [][]float32
	stats []core.Stats
	snap  obs.Snapshot
}

// runEquiv runs one all-reduce of grads on a fresh star fabric.
func runEquiv(t *testing.T, alg Algorithm, grads [][]float32, aggregate bool) equivResult {
	t.Helper()
	n := len(grads)
	q := deepQ()
	q.AggregateTrimmable = aggregate
	star, ws := starWorkers(t, n, Trimmable, q, fast(), quant.Sign)
	sim := star.Net.Sim
	res := equivResult{avgs: mustAllReduce(t, sim, alg, 5, 100, ws, grads), stats: make([]core.Stats, n)}
	if err := star.Net.Audit(); err != nil {
		t.Errorf("%v n=%d agg=%v: %v", alg, n, aggregate, err)
	}
	for rank, w := range ws {
		res.stats[rank] = w.AggStats
	}
	res.snap = sim.Obs().Snapshot()
	return res
}

// TestAllReduceEquivalenceMatrix covers rd's remainders r = 1, 2, 3 (n =
// 5, 6, 7), hier's uneven groups (n = 5: three groups of 1, 2, 2) and the
// lone rank (n = 1).
func TestAllReduceEquivalenceMatrix(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		grads := make([][]float32, n)
		for i := range grads {
			grads[i] = intGrad(uint64(1000*n+i), 512)
		}
		want := exactMean(grads)
		for _, alg := range Algorithms() {
			for _, aggregate := range []bool{false, true} {
				res := runEquiv(t, alg, grads, aggregate)
				for rank, avg := range res.avgs {
					for i := range want {
						if avg[i] != want[i] {
							t.Fatalf("%v n=%d agg=%v rank %d: coord %d = %v, want %v",
								alg, n, aggregate, rank, i, avg[i], want[i])
						}
					}
					_ = rank
				}
				// Same seed, same bytes: a second run must reproduce the
				// gradients, the decode stats, and the canonical obs snapshot.
				again := runEquiv(t, alg, grads, aggregate)
				if !reflect.DeepEqual(res.avgs, again.avgs) {
					t.Fatalf("%v n=%d agg=%v: averages differ across identical runs", alg, n, aggregate)
				}
				if !reflect.DeepEqual(res.stats, again.stats) {
					t.Fatalf("%v n=%d agg=%v: stats differ across identical runs:\n%+v\n%+v",
						alg, n, aggregate, res.stats, again.stats)
				}
				if !reflect.DeepEqual(res.snap, again.snap) {
					t.Fatalf("%v n=%d agg=%v: obs snapshots differ across identical runs", alg, n, aggregate)
				}
			}
		}
	}
}

// TestAllReduceSequentialRounds pins MsgSpan: two back-to-back rounds with
// the message base advanced by MsgSpan must not cross-talk.
func TestAllReduceSequentialRounds(t *testing.T) {
	for _, n := range []int{4, 7} {
		for _, alg := range Algorithms() {
			star, ws := starWorkers(t, n, Trimmable, deepQ(), fast(), quant.Sign)
			sim := star.Net.Sim
			gradsA := make([][]float32, n)
			gradsB := make([][]float32, n)
			for i := range gradsA {
				gradsA[i] = intGrad(uint64(10+i), 256)
				gradsB[i] = intGrad(uint64(20+i), 256)
			}
			wantA, wantB := exactMean(gradsA), exactMean(gradsB)
			resA := mustAllReduce(t, sim, alg, 1, 100, ws, gradsA)
			resB := mustAllReduce(t, sim, alg, 2, 100+MsgSpan(alg, n), ws, gradsB)
			for rank := 0; rank < n; rank++ {
				for i := range wantA {
					if resA[rank][i] != wantA[i] {
						t.Fatalf("%v n=%d rank %d round A: coord %d = %v, want %v", alg, n, rank, i, resA[rank][i], wantA[i])
					}
					if resB[rank][i] != wantB[i] {
						t.Fatalf("%v n=%d rank %d round B: coord %d = %v, want %v", alg, n, rank, i, resB[rank][i], wantB[i])
					}
				}
			}
		}
	}
}

// TestParamServerIncastAggregates drives the SwitchML scenario: a
// parameter-server incast through an aggregating switch port. The
// bottleneck queue must actually fold packets (Aggregated > 0), every
// rank must still finish with the exact average, and a same-seed re-run
// must be bit-for-bit identical.
func TestParamServerIncastAggregates(t *testing.T) {
	const n, dim = 4, 1 << 14
	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = intGrad(uint64(31+i), dim)
	}
	want := exactMean(grads)
	run := func() ([][]float32, int) {
		q := deepQ()
		q.AggregateTrimmable = true
		star, ws := starWorkers(t, n, Trimmable, q, fast(), quant.Sign)
		avgs := mustAllReduce(t, star.Net.Sim, AlgParamServer, 9, 100, ws, grads)
		aggregated := 0
		for i := 0; i < n; i++ {
			if p := star.Tier(netsim.TierEdge)[0].Port(netsim.NodeID(i)); p != nil {
				aggregated += p.Stats.Aggregated
			}
		}
		return avgs, aggregated
	}
	avgs, aggregated := run()
	if aggregated == 0 {
		t.Fatal("incast through aggregating switch folded no packets")
	}
	for rank, avg := range avgs {
		for i := range want {
			if avg[i] != want[i] {
				t.Fatalf("rank %d: coord %d = %v, want %v", rank, i, avg[i], want[i])
			}
		}
	}
	again, aggregatedAgain := run()
	if aggregated != aggregatedAgain {
		t.Fatalf("aggregated count differs across identical runs: %d vs %d", aggregated, aggregatedAgain)
	}
	if !reflect.DeepEqual(avgs, again) {
		t.Fatal("averages differ across identical runs")
	}
}
