// Collective-zoo benchmarks: one simulated all-reduce round per
// algorithm over a trimming star fabric, plus the parameter-server
// incast with in-network aggregation switched on. The interesting axes are
// events and allocations per round — wall time is dominated by the
// simulator, and the per-algorithm spread shows the event-count cost of
// each schedule's traffic pattern.
package trimgrad

import (
	"fmt"
	"testing"

	"trimgrad/internal/collective"
	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
	"trimgrad/internal/xrand"
)

// benchAllReduce runs b.N complete rounds of alg over n workers, each
// round on a fresh fabric so pool/queue state never accumulates across
// iterations.
func benchAllReduce(b *testing.B, alg collective.Algorithm, n int, agg bool) {
	dim := 1 << 13
	grads := make([][]float32, n)
	for i := range grads {
		r := xrand.New(uint64(i) + 1)
		g := make([]float32, dim)
		for j := range g {
			g[j] = float32(r.NormFloat64() * 0.05)
		}
		grads[i] = g
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		sim := netsim.NewSim()
		star := netsim.NewStar(sim, n,
			netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: netsim.Microsecond},
			netsim.QueueConfig{
				CapacityBytes:      48 << 10,
				HighCapacityBytes:  1 << 20,
				Mode:               netsim.TrimOverflow,
				AggregateTrimmable: agg,
			})
		workers := make([]*collective.Worker, n)
		for i := 0; i < n; i++ {
			stack, err := transport.New(star.Hosts[i])
			if err != nil {
				b.Fatal(err)
			}
			w, err := collective.New(i, stack,
				collective.WithConfig(core.Config{
					Params:  quant.Params{Scheme: quant.Sign},
					RowSize: 1 << 12,
				}),
				collective.WithMode(collective.Trimmable))
			if err != nil {
				b.Fatal(err)
			}
			workers[i] = w
		}
		done := 0
		err := collective.AllReduce(alg, 1, 100, workers, grads,
			func(int, []float32, netsim.Time) { done++ },
			func(rank int, err error) { b.Fatalf("rank %d: %v", rank, err) })
		if err != nil {
			b.Fatal(err)
		}
		sim.RunUntil(20 * netsim.Second)
		if done != n {
			b.Fatalf("round incomplete: %d/%d", done, n)
		}
	}
}

// BenchmarkCollectiveAllReduce covers every algorithm at 8 workers.
func BenchmarkCollectiveAllReduce(b *testing.B) {
	for _, alg := range collective.Algorithms() {
		b.Run(alg.String(), func(b *testing.B) {
			benchAllReduce(b, alg, 8, false)
		})
	}
}

// BenchmarkCollectivePSAggregation pairs the parameter-server incast
// with and without the aggregating switch — the in-network aggregation
// claim's perf evidence: merging at the queue removes most of the
// receiver-side events and deliveries.
func BenchmarkCollectivePSAggregation(b *testing.B) {
	for _, agg := range []bool{false, true} {
		b.Run(fmt.Sprintf("agg=%v", agg), func(b *testing.B) {
			benchAllReduce(b, collective.AlgParamServer, 8, agg)
		})
	}
}
