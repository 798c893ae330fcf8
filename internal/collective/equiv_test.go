package collective

import (
	"reflect"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
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
	sim, ws := starWorkers(t, n, Trimmable, q, fast(), quant.Sign)
	res := equivResult{avgs: make([][]float32, n), stats: make([]core.Stats, n)}
	err := AllReduce(alg, 5, 100, ws, grads,
		func(rank int, avg []float32, at netsim.Time) { res.avgs[rank] = avg },
		func(rank int, err error) { t.Errorf("%v rank %d: %v", alg, rank, err) })
	if err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	sim.Run()
	for rank, avg := range res.avgs {
		if avg == nil {
			t.Fatalf("%v n=%d agg=%v: rank %d incomplete", alg, n, aggregate, rank)
		}
		res.stats[rank] = ws[rank].AggStats
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
			sim, ws := starWorkers(t, n, Trimmable, deepQ(), fast(), quant.Sign)
			gradsA := make([][]float32, n)
			gradsB := make([][]float32, n)
			for i := range gradsA {
				gradsA[i] = intGrad(uint64(10+i), 256)
				gradsB[i] = intGrad(uint64(20+i), 256)
			}
			wantA, wantB := exactMean(gradsA), exactMean(gradsB)
			resA := make([][]float32, n)
			resB := make([][]float32, n)
			fail := func(rank int, err error) { t.Errorf("%v n=%d rank %d: %v", alg, n, rank, err) }
			if err := AllReduce(alg, 1, 100, ws, gradsA,
				func(rank int, avg []float32, at netsim.Time) { resA[rank] = avg }, fail); err != nil {
				t.Fatal(err)
			}
			sim.Run()
			base := 100 + MsgSpan(alg, n)
			if err := AllReduce(alg, 2, base, ws, gradsB,
				func(rank int, avg []float32, at netsim.Time) { resB[rank] = avg }, fail); err != nil {
				t.Fatal(err)
			}
			sim.Run()
			for rank := 0; rank < n; rank++ {
				if resA[rank] == nil || resB[rank] == nil {
					t.Fatalf("%v n=%d rank %d: incomplete (A=%v B=%v)", alg, n, rank, resA[rank] != nil, resB[rank] != nil)
				}
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
		sim := netsim.NewSim()
		star := netsim.NewStar(sim, n, fast(), q)
		ws := make([]*Worker, n)
		for i := 0; i < n; i++ {
			st := newStack(star.Hosts[i], transport.Config{})
			w, err := New(i, st, WithConfig(coreCfg(quant.Sign)), WithMode(Trimmable))
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = w
		}
		avgs := make([][]float32, n)
		err := AllReduce(AlgParamServer, 9, 100, ws, grads,
			func(rank int, avg []float32, at netsim.Time) { avgs[rank] = avg },
			func(rank int, err error) { t.Errorf("rank %d: %v", rank, err) })
		if err != nil {
			t.Fatal(err)
		}
		sim.Run()
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
		if avg == nil {
			t.Fatalf("rank %d incomplete", rank)
		}
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
