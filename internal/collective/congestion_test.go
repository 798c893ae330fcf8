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
		base := uint32(1 + round*n)
		for rank, got := range mustAllReduce(t, sim, AlgDirect, uint64(round+1), base, ws, grads) {
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
	trimmed := 0
	for rank, got := range mustAllReduce(t, sim, AlgRing, 5, 700, ws, grads) {
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
	mustAllReduce(t, sim, AlgDirect, 1, 1, ws, grads)
	for rank, w := range ws {
		if w.AggStats.TotalCoords == 0 {
			t.Errorf("rank %d: no coords accounted", rank)
		}
		if w.AggStats.BytesReceived == 0 {
			t.Errorf("rank %d: no bytes accounted", rank)
		}
	}
}
