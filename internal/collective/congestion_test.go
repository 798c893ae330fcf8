package collective

import (
	"testing"

	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/vecmath"
)

// TestWorkersReusableAcrossOps: the same workers run consecutive
// collectives with distinct message-id ranges.
func TestWorkersReusableAcrossOps(t *testing.T) {
	const n = 3
	star, ws := starWorkers(t, n, Trimmable, deepQ(), fast(), quant.RHT)
	sim := star.Net.Sim
	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = gaussianGrad(uint64(40+i), 1024)
	}
	want := exactMean(grads)

	for round := 0; round < 3; round++ {
		results := make([][]float32, n)
		base := uint32(1 + round*n)
		err := AllReduce(AlgDirect, uint64(round+1), base, ws, grads,
			func(rank int, avg []float32, at netsim.Time) { results[rank] = avg },
			func(rank int, err error) { t.Errorf("round %d rank %d: %v", round, rank, err) })
		if err != nil {
			t.Fatal(err)
		}
		sim.Run()
		for rank, got := range results {
			if got == nil {
				t.Fatalf("round %d: rank %d incomplete", round, rank)
			}
			if nm := vecmath.NMSE(want, got); nm > 1e-8 {
				t.Errorf("round %d rank %d: NMSE %g", round, rank, nm)
			}
		}
	}
}

// TestRingUnderCongestionStillCompletes: ring all-reduce on a shallow
// trimming fabric completes with per-hop compounded error but a positive
// gradient direction.
func TestRingUnderCongestionStillCompletes(t *testing.T) {
	const n = 4
	sim, ws := ringWorkers(t, n, Trimmable,
		netsim.QueueConfig{CapacityBytes: 4 << 10, HighCapacityBytes: 1 << 20, Mode: netsim.TrimOverflow},
		fast(),
		netsim.LinkConfig{Bandwidth: netsim.Mbps(300), Delay: 2 * netsim.Microsecond},
		quant.RHT)
	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = gaussianGrad(uint64(50+i), 1<<13)
	}
	want := exactMean(grads)
	results := make([][]float32, n)
	err := AllReduce(AlgRing, 5, 700, ws, grads,
		func(rank int, avg []float32, at netsim.Time) { results[rank] = avg },
		func(rank int, err error) { t.Errorf("rank %d: %v", rank, err) })
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(30 * netsim.Second)

	trimmed := 0
	for rank, got := range results {
		if got == nil {
			t.Fatalf("rank %d incomplete", rank)
		}
		cos := vecmath.CosineSimilarity(want, got)
		if cos < 0.3 {
			t.Errorf("rank %d: cosine %v (compounded error too large)", rank, cos)
		}
		trimmed += ws[rank].AggStats.TrimmedCoords
	}
	if trimmed == 0 {
		t.Fatal("expected trimming on the shallow ring")
	}
}

// TestAggStatsAccumulate: worker decode statistics accumulate across
// operations and reflect trimming.
func TestAggStatsAccumulate(t *testing.T) {
	const n = 2
	star, ws := starWorkers(t, n, Trimmable,
		netsim.QueueConfig{CapacityBytes: 4 << 10, HighCapacityBytes: 1 << 20, Mode: netsim.TrimOverflow},
		netsim.LinkConfig{Bandwidth: netsim.Mbps(300), Delay: 2 * netsim.Microsecond},
		quant.RHT)
	sim := star.Net.Sim
	grads := [][]float32{gaussianGrad(61, 1<<13), gaussianGrad(62, 1<<13)}
	done := 0
	err := AllReduce(AlgDirect, 1, 1, ws, grads,
		func(rank int, avg []float32, at netsim.Time) { done++ }, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(30 * netsim.Second)
	if done != n {
		t.Fatalf("completed %d/%d", done, n)
	}
	for rank, w := range ws {
		if w.AggStats.TotalCoords == 0 {
			t.Errorf("rank %d: no coords accounted", rank)
		}
		if w.AggStats.BytesReceived == 0 {
			t.Errorf("rank %d: no bytes accounted", rank)
		}
	}
}
