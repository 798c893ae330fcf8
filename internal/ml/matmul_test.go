package ml

import (
	"fmt"
	"math"
	"testing"

	"trimgrad/internal/xrand"
)

// matmulWorkerCounts is the cross-worker-count equivalence matrix the
// perf substrate is tested against: a replica's serial loop (1), the
// pool at its own size (0, what NewMLP binds), and under-, at- and
// over-subscribed relative to typical GOMAXPROCS.
var matmulWorkerCounts = []int{1, 0, 2, 3, 8}

func randomBatch(rng *xrand.Rand, n, dim int, sparsify bool) [][]float32 {
	x := make([][]float32, n)
	for s := range x {
		row := make([]float32, dim)
		for i := range row {
			row[i] = float32(rng.NormFloat64())
			// Leave entries out of the live lists the way ReLU outputs do.
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

// refReLU is the rectifier as a branch: a copy of x with +0 wherever x is
// not > 0.
func refReLU(x [][]float32) [][]float32 {
	y := make([][]float32, len(x))
	for s, row := range x {
		y[s] = make([]float32, len(row))
		for i, v := range row {
			if v > 0 {
				y[s][i] = v
			}
		}
	}
	return y
}

// refMask is the rectifier's backward as a branch: +0 in g wherever the
// rectified y is dead.
func refMask(g, y [][]float32) {
	for s, row := range g {
		for i := range row {
			if !(y[s][i] > 0) {
				row[i] = 0
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

// liveCounts are the list lengths a block-of-four walk has to get right,
// one per sample in turn: an all-dead row, 1–3 (no full block), 4k + r, and
// an all-live row.
var liveCounts = []int{0, 1, 2, 3, 4, 5, 7, 10, math.MaxInt}

// activationPatterns are the zero layouts the lists have to get right:
// nothing to list, nothing to leave out, every other one, a ReLU-like
// random half, whole input columns dead in every sample (the columns
// poisonDeadRows then fills with NaN, ±Inf and −0 weights), and rows of
// every liveCounts length.
var activationPatterns = []struct {
	name string
	zero func(rng *xrand.Rand, s, i, dim int) bool
}{
	{"all-zero", func(*xrand.Rand, int, int, int) bool { return true }},
	{"no-zero", func(*xrand.Rand, int, int, int) bool { return false }},
	{"alternating", func(_ *xrand.Rand, s, i, _ int) bool { return (s+i)%2 == 0 }},
	{"relu-like", func(rng *xrand.Rand, _, _, _ int) bool { return rng.Float64() < 0.5 }},
	{"dead-columns", func(rng *xrand.Rand, _, i, _ int) bool { return i%3 == 1 || rng.Float64() < 0.3 }},
	{"live-counts", func(_ *xrand.Rand, s, i, dim int) bool { return (i*3+s)%dim >= liveCounts[s%len(liveCounts)] }},
}

// poisonDeadRows overwrites the weight rows of inputs that are zero in
// every sample with values that must never reach a forward sum or, when a
// rectifier made those zeros, an input gradient.
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
func patternBatch(rng *xrand.Rand, n, dim int, zero func(rng *xrand.Rand, s, i, dim int) bool) [][]float32 {
	negZero := float32(math.Copysign(0, -1))
	x := randomBatch(rng, n, dim, false)
	for s, row := range x {
		for i := range row {
			if zero(rng, s, i, dim) {
				// −0 compares equal to zero and is skipped like +0.
				row[i] = []float32{0, negZero}[(s+i)%2]
			}
		}
	}
	return x
}

// preActivations is a matrix the rectifier turns into x's zero layout:
// positive where x is live, and where x is zero one of the values v > 0
// rejects — both zeros, a negative, −Inf, NaNs of either sign.
func preActivations(x [][]float32) [][]float32 {
	dead := []float32{
		0, float32(math.Copysign(0, -1)), -1.5, float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0xffc00001),
	}
	pre := make([][]float32, len(x))
	for s, row := range x {
		pre[s] = make([]float32, len(row))
		for i, v := range row {
			if v == 0 {
				pre[s][i] = dead[(s+i)%len(dead)]
			} else {
				pre[s][i] = float32(math.Abs(float64(v)))
			}
		}
	}
	return pre
}

func allFinite(rows [][]float32) bool {
	for _, v := range flatten(rows) {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// TestDenseForwardBackwardBitIdenticalAcrossWorkers: one training step's
// forward activations, input gradients, and parameter gradients must be
// byte-identical to the naive reference loops at every worker count —
// determinism under parallelism and under blocking is the perf
// substrate's hard invariant. The count goes to the kernels the way a
// model hands it over, through bind. Two arms share the list-driven
// kernels, in the two places a model runs a dense: first, where it lists
// its raw input's non-zero entries itself and computes no input gradient,
// and above a relu, where it takes the rectifier's list and masks its
// input gradient with it — there a poisoned weight row opposite an
// always-dead unit must stay out of the input gradient too. Each layer
// then runs a short batch and the full one again in the buffers and lists
// it has.
func TestDenseForwardBackwardBitIdenticalAcrossWorkers(t *testing.T) {
	for _, sh := range matmulShapes {
		for _, pat := range activationPatterns {
			for _, rectified := range []bool{false, true} {
				rng := xrand.New(uint64(11 + sh.in*sh.out))
				x := patternBatch(rng, sh.batch, sh.in, pat.zero)
				pre := x
				if rectified {
					pre = preActivations(x)
					x = refReLU(pre)
				}
				gy := randomBatch(rng, sh.batch, sh.out, false)
				w := make([]float32, sh.in*sh.out+sh.out)
				for i := range w {
					w[i] = float32(rng.NormFloat64())
				}
				poisonDeadRows(w[:sh.in*sh.out], x, sh.out)
				wantDw := make([]float32, len(w))
				for i := range wantDw {
					wantDw[i] = float32(rng.NormFloat64())
				}

				denses := make([]*dense, len(matmulWorkerCounts))
				relus := make([]*relu, len(matmulWorkerCounts))
				grads := make([][]float32, len(matmulWorkerCounts))
				for k, workers := range matmulWorkerCounts {
					denses[k], relus[k] = newDense(sh.in, sh.out), &relu{}
					grads[k] = append([]float32(nil), wantDw...)
					denses[k].bind(append([]float32(nil), w...), grads[k], workers)
				}

				for _, n := range []int{sh.batch, (sh.batch + 1) / 2, sh.batch} {
					label := fmt.Sprintf("%v %s rectified=%v batch %d", sh, pat.name, rectified, n)
					x, pre, gy := x[:n], pre[:n], gy[:n]
					wantFwd := new(batchBuf).shape(n, sh.out)
					wantGx := new(batchBuf).shape(n, sh.in)
					refDenseForward(wantFwd, x, w[:sh.in*sh.out], w[sh.in*sh.out:], sh.out)
					refDenseBackwardWeights(wantDw[:sh.in*sh.out], x, gy, sh.out)
					denseBackwardBias(wantDw[sh.in*sh.out:], gy)
					if !allFinite(wantFwd) {
						t.Fatalf("%s: a poisoned weight reached the reference forward sum", label)
					}
					if rectified {
						refDenseBackwardInput(wantGx, gy, w[:sh.in*sh.out], sh.out)
						refMask(wantGx, x)
						if !allFinite(wantGx) {
							t.Fatalf("%s: a poisoned weight reached the reference input gradient", label)
						}
					}

					for k, workers := range matmulWorkerCounts {
						d, r := denses[k], relus[k]
						// A layer's matrices hold whatever the last pass
						// left: every element must be stored again.
						for _, buf := range []*batchBuf{&d.y, &d.gradIn} {
							for i := range buf.backing {
								buf.backing[i] = float32(math.NaN())
							}
						}
						var fwd [][]float32
						if rectified {
							// The rectifier overwrites the matrix it is lent.
							lent := new(batchBuf).like(pre)
							for s := range pre {
								copy(lent[s], pre[s])
							}
							fwd = d.forward(r.forward(activations{rows: lent}, true), true).rows
							gradIn := d.backward(gy, true)
							bitsEqual(t, label+" gradIn", workers, canonNaNs(flatten(gradIn)), canonNaNs(flatten(wantGx)))
						} else {
							fwd = d.forward(activations{rows: x}, true).rows
							if gradIn := d.backward(gy, false); gradIn != nil {
								t.Fatalf("%s: a first layer computed its input gradient", label)
							}
						}
						bitsEqual(t, label+" forward", workers, flatten(fwd), flatten(wantFwd))
						bitsEqual(t, label+" dW,db", workers, grads[k], wantDw)
					}
				}
			}
		}
	}
}

// TestTrainingStepBitIdenticalAcrossWorkers runs whole SGD steps through
// an MLP — two rectified layers of widths that are not multiples of four,
// a short last batch — and requires the resulting parameters to match,
// bit for bit, the steps taken on the naive kernels' gradients: the
// end-to-end guarantee trainsim's telemetry determinism rests on.
func TestTrainingStepBitIdenticalAcrossWorkers(t *testing.T) {
	train, _ := Synthetic(SyntheticConfig{Classes: 10, Dim: 24, Train: 100, Test: 8, Seed: 9})
	sizes := []int{train.Dim, 45, 18, train.Classes}
	xs, ys := train.Batches(32, 77)

	ref := append([]float32(nil), NewMLP(3, sizes...).Params()...)
	opt := NewSGD(0.05, 0.9)
	for r := range xs {
		opt.Step(ref, refPass(ref, sizes, xs[r], ys[r]).grads)
	}

	for _, workers := range matmulWorkerCounts {
		m := NewMLP(3, sizes...)
		m.bind(workers)
		opt := NewSGD(0.05, 0.9)
		for r := range xs {
			m.ZeroGrad()
			logits := m.Forward(xs[r], true)
			_, dLogits := SoftmaxCrossEntropy(logits, ys[r])
			m.Backward(dLogits)
			opt.Step(m.Params(), m.Grads())
		}
		bitsEqual(t, "params", workers, m.Params(), ref)
	}
}

// BenchmarkDenseLayer measures one forward+backward pass of a
// paper-plausible layer, serial vs pooled: over a raw input, as a model's
// first layer, which lists its input itself and computes no input
// gradient, and over a rectifier's output — about half live, the share a
// train_k4_ps profile sees — with the rectifier's list and a masked input
// gradient.
func BenchmarkDenseLayer(b *testing.B) {
	const batch, in, out = 128, 64, 128
	rng := xrand.New(4)
	raw := randomBatch(rng, batch, in, true)
	gy := randomBatch(rng, batch, out, false)
	pre := randomBatch(rng, batch, in, false)
	for _, bc := range []struct {
		name      string
		workers   int
		rectified bool
	}{{"serial", 1, false}, {"parallel", 0, false}, {"serial-rectified", 1, true}, {"parallel-rectified", 0, true}} {
		b.Run(bc.name, func(b *testing.B) {
			d := newDense(in, out)
			params := make([]float32, d.paramCount())
			grads := make([]float32, d.paramCount())
			d.bind(params, grads, bc.workers)
			d.initialize(xrand.New(5))
			x := activations{rows: raw}
			if bc.rectified {
				x = (&relu{}).forward(activations{rows: pre}, true)
			}
			live := 0
			for _, v := range flatten(x.rows) {
				if v != 0 {
					live++
				}
			}
			b.SetBytes(int64(batch * in * out * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.forward(x, true)
				d.backward(gy, bc.rectified)
			}
			b.ReportMetric(float64(live)/float64(batch*in), "live_share")
		})
	}
}
