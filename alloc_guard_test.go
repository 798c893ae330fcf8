package trimgrad

import (
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/ml"
	"trimgrad/internal/quant"
)

// The allocation guards bound what the training round's two compute
// layers allocate per unit of work, in steady state, so the figure the
// benchmark reports as alloc_mb_per_iter cannot creep back between
// benchmark runs. The bounds were set from the code that draws a row's
// head and tail words from the par scratch pool and lets every layer keep
// its batch matrices; the encode bound is a few allocations above what that
// code measures and well below what the per-row makes cost.

func skipAllocGuard(t *testing.T) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("allocation counts are a property of the uninstrumented build")
	}
}

// TestAllocGuardEncodeParallel: a steady-state EncodeParallel of
// train_k4_ps's gradient (45 214 floats in 2^11-coordinate RHT rows)
// allocates per row its six packets, its metadata packet, the slice that
// holds them and the row's descriptor — not the row's head and tail words.
func TestAllocGuardEncodeParallel(t *testing.T) {
	skipAllocGuard(t)
	const rowSize, maxPerRow = 1 << 11, 10.5
	grad := benchRow(32*256 + 256 + 256*128 + 128 + 128*30 + 30)
	rows := (len(grad) + rowSize - 1) / rowSize
	enc, err := core.NewEncoderWith(core.WithConfig(core.Config{
		Params: quant.Params{Scheme: quant.RHT}, RowSize: rowSize,
	}))
	if err != nil {
		t.Fatal(err)
	}
	msg := uint32(0)
	perRow := testing.AllocsPerRun(20, func() {
		msg++
		if _, err := enc.EncodeParallel(1, msg, grad, 0); err != nil {
			t.Fatal(err)
		}
	}) / float64(rows)
	t.Logf("%.2f allocations per row over %d rows", perRow, rows)
	if perRow > maxPerRow {
		t.Errorf("EncodeParallel allocates %.2f times per row, bound %.1f", perRow, maxPerRow)
	}
}

// TestAllocGuardForwardBackward: a warmed replica of the benchmark's
// 32-256-128-30 MLP runs Forward and Backward at batch 64 without
// allocating: every batch matrix is its layer's, and its kernels build no
// closure. (A round's other allocations — the loss gradient, the fan-out —
// are bounded by ddp's TestAllocGuardComputeRound, next to computeGrads.)
func TestAllocGuardForwardBackward(t *testing.T) {
	skipAllocGuard(t)
	const batch = 64
	model := ml.NewMLP(1, 32, 256, 128, 30).Replica()
	x := make([][]float32, batch)
	dLogits := make([][]float32, batch)
	for s := range x {
		x[s] = benchRow(32)
		dLogits[s] = benchRow(30)
	}
	allocs := testing.AllocsPerRun(20, func() {
		model.Forward(x, true)
		model.Backward(dLogits)
	})
	if allocs != 0 {
		t.Errorf("a warmed replica's Forward+Backward allocates %.0f times at batch %d, want 0", allocs, batch)
	}
}
