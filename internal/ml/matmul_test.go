package ml

import (
	"math"
	"testing"

	"trimgrad/internal/xrand"
)

// matmulWorkerCounts is the cross-worker-count equivalence matrix the
// perf substrate is tested against (serial, under-, at-, and
// over-subscribed relative to typical GOMAXPROCS).
var matmulWorkerCounts = []int{1, 2, 3, 8}

func randomBatch(rng *xrand.Rand, n, dim int, sparsify bool) [][]float32 {
	x := make([][]float32, n)
	for s := range x {
		row := make([]float32, dim)
		for i := range row {
			row[i] = float32(rng.NormFloat64())
			// Exercise the xi == 0 skip path the way ReLU outputs do.
			if sparsify && rng.Float64() < 0.3 {
				row[i] = 0
			}
		}
		x[s] = row
	}
	return x
}

func bitsEqual(t *testing.T, label string, workers int, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s workers=%d: length %d != %d", label, workers, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s workers=%d: [%d] = %x, want %x (%g vs %g)",
				label, workers, i, math.Float32bits(got[i]), math.Float32bits(want[i]), got[i], want[i])
		}
	}
}

// The naive triple loops the blocked kernels replaced, kept as the
// references every kernel is pinned to: plain ascending order per
// accumulator, a term skipped when its activation is exactly zero.

func refDenseForward(out, x [][]float32, w, b []float32, outDim int) {
	for s, row := range x {
		y := out[s]
		copy(y, b)
		for i, xi := range row {
			if xi == 0 {
				continue
			}
			for j := 0; j < outDim; j++ {
				y[j] += xi * w[i*outDim+j]
			}
		}
	}
}

func refDenseBackwardInput(gradIn, gradOut [][]float32, w []float32, outDim int) {
	for s, gy := range gradOut {
		for i := range gradIn[s] {
			var acc float32
			for j := 0; j < outDim; j++ {
				acc += gy[j] * w[i*outDim+j]
			}
			gradIn[s][i] = acc
		}
	}
}

func refDenseBackwardWeights(dw []float32, x, gradOut [][]float32, outDim int) {
	for s, gy := range gradOut {
		for i, xi := range x[s] {
			if xi == 0 {
				continue
			}
			for j := 0; j < outDim; j++ {
				dw[i*outDim+j] += xi * gy[j]
			}
		}
	}
}

func flatten(rows [][]float32) []float32 {
	var out []float32
	for _, row := range rows {
		out = append(out, row...)
	}
	return out
}

// canonNaNs gives every NaN one bit pattern: when both operands of an add
// are NaNs the hardware keeps the payload of whichever the compiler
// placed first, which is not a property of the order of the terms.
func canonNaNs(v []float32) []float32 {
	for i, x := range v {
		if math.IsNaN(float64(x)) {
			v[i] = float32(math.NaN())
		}
	}
	return v
}

// activationPatterns are the zero layouts the gather step has to get
// right: none to gather, nothing to skip, every other one, a ReLU-like
// random half, and whole input columns dead in every sample (the columns
// poisonDeadRows then fills with NaN, ±Inf and −0 weights).
var activationPatterns = []struct {
	name string
	zero func(rng *xrand.Rand, s, i int) bool
}{
	{"all-zero", func(*xrand.Rand, int, int) bool { return true }},
	{"no-zero", func(*xrand.Rand, int, int) bool { return false }},
	{"alternating", func(_ *xrand.Rand, s, i int) bool { return (s+i)%2 == 0 }},
	{"relu-like", func(rng *xrand.Rand, _, _ int) bool { return rng.Float64() < 0.5 }},
	{"dead-columns", func(rng *xrand.Rand, _, i int) bool { return i%3 == 1 || rng.Float64() < 0.3 }},
}

// poisonDeadRows overwrites the weight rows of inputs that are zero in
// every sample with values that must never reach a forward sum.
func poisonDeadRows(w []float32, x [][]float32, outDim int) {
	poison := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)),
	}
	for i := 0; i < len(w)/outDim; i++ {
		dead := true
		for _, row := range x {
			dead = dead && row[i] == 0
		}
		if dead {
			for j := 0; j < outDim; j++ {
				w[i*outDim+j] = poison[(i+j)%len(poison)]
			}
		}
	}
}

// matmulShapes cover a single element, less than one block of four, and
// sizes that are not multiples of 4 or 8 on either side of the jBlock tile
// edge.
var matmulShapes = []struct{ batch, in, out int }{
	{1, 1, 1}, {3, 3, 1}, {5, 1, 3}, {2, 3, 3}, {37, 30, 33}, {4, 33, 30},
	{7, 130, 33}, {9, 33, 130}, {37, 65, 50}, {6, 30, jBlock + 33},
}

// patternBatch is a random batch with ±0 wherever zero says so.
func patternBatch(rng *xrand.Rand, n, dim int, zero func(rng *xrand.Rand, s, i int) bool) [][]float32 {
	negZero := float32(math.Copysign(0, -1))
	x := randomBatch(rng, n, dim, false)
	for s, row := range x {
		for i := range row {
			if zero(rng, s, i) {
				// −0 compares equal to zero and is skipped like +0.
				row[i] = []float32{0, negZero}[(s+i)%2]
			}
		}
	}
	return x
}

// TestDenseForwardBackwardBitIdenticalAcrossWorkers: one training step's
// forward activations, input gradients, and parameter gradients must be
// byte-identical to the naive reference loops at every worker count —
// determinism under parallelism and under blocking is the perf
// substrate's hard invariant. The count goes to the kernels the way a
// model hands it over, through bind.
func TestDenseForwardBackwardBitIdenticalAcrossWorkers(t *testing.T) {
	for _, sh := range matmulShapes {
		for _, pat := range activationPatterns {
			rng := xrand.New(uint64(11 + sh.in*sh.out))
			x := patternBatch(rng, sh.batch, sh.in, pat.zero)
			gy := randomBatch(rng, sh.batch, sh.out, false)
			w := make([]float32, sh.in*sh.out+sh.out)
			for i := range w {
				w[i] = float32(rng.NormFloat64())
			}
			poisonDeadRows(w[:sh.in*sh.out], x, sh.out)
			dw0 := make([]float32, len(w))
			for i := range dw0 {
				dw0[i] = float32(rng.NormFloat64())
			}

			wantFwd := new(batchBuf).shape(sh.batch, sh.out)
			wantGx := new(batchBuf).shape(sh.batch, sh.in)
			wantDw := append([]float32(nil), dw0...)
			refDenseForward(wantFwd, x, w[:sh.in*sh.out], w[sh.in*sh.out:], sh.out)
			refDenseBackwardInput(wantGx, gy, w[:sh.in*sh.out], sh.out)
			refDenseBackwardWeights(wantDw[:sh.in*sh.out], x, gy, sh.out)
			denseBackwardBias(wantDw[sh.in*sh.out:], gy)
			for _, v := range flatten(wantFwd) {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%v %s: a poisoned weight reached the reference forward sum", sh, pat.name)
				}
			}

			for _, workers := range matmulWorkerCounts {
				d := NewDense(sh.in, sh.out)
				grads := append([]float32(nil), dw0...)
				d.bind(append([]float32(nil), w...), grads, workers)
				fwd := d.Forward(x, true)
				gradIn := d.Backward(gy)
				label := pat.name
				bitsEqual(t, label+" forward", workers, flatten(fwd), flatten(wantFwd))
				bitsEqual(t, label+" gradIn", workers, canonNaNs(flatten(gradIn)), canonNaNs(flatten(wantGx)))
				bitsEqual(t, label+" dW,db", workers, grads, wantDw)
			}
		}
	}
}

// TestTrainingStepBitIdenticalAcrossWorkers runs whole SGD steps through
// an MLP and requires the resulting parameters to match bit for bit:
// the end-to-end guarantee trainsim's telemetry determinism rests on.
func TestTrainingStepBitIdenticalAcrossWorkers(t *testing.T) {
	train, _ := Synthetic(SyntheticConfig{Classes: 10, Dim: 24, Train: 96, Test: 8, Seed: 9})

	run := func(workers int) []float32 {
		m := NewMLP(3, train.Dim, 48, train.Classes)
		m.bind(workers)
		opt := NewSGD(0.05, 0.9)
		xs, ys := train.Batches(32, 77)
		for r := range xs {
			m.ZeroGrad()
			logits := m.Forward(xs[r], true)
			_, dLogits := SoftmaxCrossEntropy(logits, ys[r])
			m.Backward(dLogits)
			opt.Step(m.Params(), m.Grads())
		}
		return append([]float32(nil), m.Params()...)
	}

	ref := run(1)
	for _, workers := range matmulWorkerCounts[1:] {
		bitsEqual(t, "params", workers, run(workers), ref)
	}
}

// BenchmarkDenseLayer measures one forward+backward pass of a
// paper-plausible layer, serial vs pooled.
func BenchmarkDenseLayer(b *testing.B) {
	const batch, in, out = 128, 64, 128
	rng := xrand.New(4)
	x := randomBatch(rng, batch, in, true)
	gy := randomBatch(rng, batch, out, false)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			d := NewDense(in, out)
			params := make([]float32, d.ParamCount())
			grads := make([]float32, d.ParamCount())
			d.bind(params, grads, bc.workers)
			d.initialize(xrand.New(5))
			b.SetBytes(int64(batch * in * out * 4))
			for i := 0; i < b.N; i++ {
				d.Forward(x, true)
				d.Backward(gy)
			}
		})
	}
}
