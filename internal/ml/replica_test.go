package ml

import (
	"math"
	"sync"
	"testing"

	"trimgrad/internal/xrand"
)

// refSoftmaxCrossEntropy is the loop SoftmaxCrossEntropy replaced: a fresh
// exps and gradient row per sample.
func refSoftmaxCrossEntropy(logits [][]float32, labels []int) (loss float64, grad [][]float32) {
	n := len(logits)
	grad = make([][]float32, n)
	for s, row := range logits {
		y := labels[s]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		exps := make([]float64, len(row))
		for i, v := range row {
			e := math.Exp(float64(v - maxV))
			exps[i] = e
			sum += e
		}
		loss += -math.Log(exps[y]/sum + 1e-45)
		g := make([]float32, len(row))
		for i := range row {
			p := exps[i] / sum
			if i == y {
				p -= 1
			}
			g[i] = float32(p / float64(n))
		}
		grad[s] = g
	}
	return loss / float64(n), grad
}

// TestSoftmaxCrossEntropyMatchesPerRow: one backing array and one reused
// exps row give the per-row loop's loss and gradient bit for bit, on rows of
// unequal length (the reused row must shrink and grow) and on a batch of one.
func TestSoftmaxCrossEntropyMatchesPerRow(t *testing.T) {
	rng := xrand.New(21)
	for _, lens := range [][]int{{30, 30, 30, 30}, {1}, {5, 9, 2, 9, 1}, {7}} {
		logits := make([][]float32, len(lens))
		labels := make([]int, len(lens))
		for s, n := range lens {
			logits[s] = randomBatch(rng, 1, n, false)[0]
			logits[s][rng.Intn(n)] *= 40 // a dominant logit: exps underflow around it
			labels[s] = rng.Intn(n)
		}
		loss, grad := SoftmaxCrossEntropy(logits, labels)
		wantLoss, wantGrad := refSoftmaxCrossEntropy(logits, labels)
		if math.Float64bits(loss) != math.Float64bits(wantLoss) {
			t.Errorf("lens %v: loss %v, per-row loop %v", lens, loss, wantLoss)
		}
		for s := range grad {
			bitsEqual(t, "loss gradient", 1, grad[s], wantGrad[s])
		}
	}
}

// passResult is everything one training pass produces.
type passResult struct {
	logits []float32
	loss   float64
	grads  []float32
}

func trainPass(m *Model, x [][]float32, labels []int) passResult {
	m.ZeroGrad()
	logits := m.Forward(x, true)
	loss, dLogits := SoftmaxCrossEntropy(logits, labels)
	m.Backward(dLogits)
	return passResult{flatten(logits), loss, append([]float32(nil), m.Grads()...)}
}

// refPass is trainPass for an MLP of the given sizes over params, from the
// naive kernels and the per-row loss, every matrix freshly allocated — and
// the first layer's input gradient, which no parameter gradient depends on,
// left out as Model.Backward leaves it out.
func refPass(params []float32, sizes []int, x [][]float32, labels []int) passResult {
	fresh := func(n, dim int) [][]float32 { return new(batchBuf).shape(n, dim) }
	type refDense struct {
		w, b, dw, db []float32
		x            [][]float32
		out          int
	}
	grads := make([]float32, len(params))
	layers := make([]refDense, len(sizes)-1)
	off := 0
	for l := range layers {
		in, out := sizes[l], sizes[l+1]
		nw := in * out
		layers[l] = refDense{
			w: params[off : off+nw], b: params[off+nw : off+nw+out],
			dw: grads[off : off+nw], db: grads[off+nw : off+nw+out], out: out,
		}
		off += nw + out
	}
	act := x
	for l := range layers {
		d := &layers[l]
		d.x = act
		y := fresh(len(act), d.out)
		refDenseForward(y, act, d.w, d.b, d.out)
		if l < len(layers)-1 {
			y = refReLU(y)
		}
		act = y
	}
	loss, g := refSoftmaxCrossEntropy(act, labels)
	for l := len(layers) - 1; l >= 0; l-- {
		d := &layers[l]
		refDenseBackwardWeights(d.dw, d.x, g, d.out)
		denseBackwardBias(d.db, g)
		if l == 0 {
			break
		}
		gx := fresh(len(g), sizes[l])
		refDenseBackwardInput(gx, g, d.w, d.out)
		refMask(gx, d.x) // d.x is the ReLU output feeding layer l
		g = gx
	}
	return passResult{flatten(act), loss, grads}
}

func samePass(t *testing.T, label string, got, want passResult) {
	t.Helper()
	bitsEqual(t, label+" logits", 1, got.logits, want.logits)
	if math.Float64bits(got.loss) != math.Float64bits(want.loss) {
		t.Fatalf("%s: loss %v, want %v", label, got.loss, want.loss)
	}
	bitsEqual(t, label+" grads", 1, got.grads, want.grads)
}

func randomLabels(rng *xrand.Rand, n, classes int) []int {
	y := make([]int, n)
	for s := range y {
		y[s] = rng.Intn(classes)
	}
	return y
}

// TestReplicaBitIdentical pins a replica's pass — logits, loss, every
// gradient word — to the naive reference and to the root model's serial
// pass: over the kernel test's shape × zero-layout grid; while its batch
// buffers are reused across a batch-size change and a ragged last batch;
// after an SGD step on the root, whose parameters it shares; and with two
// replicas of one root running at once (the race pass watches that one).
func TestReplicaBitIdentical(t *testing.T) {
	const classes = 3
	for _, sh := range matmulShapes {
		for _, pat := range activationPatterns {
			rng := xrand.New(uint64(17 + sh.in*sh.out))
			sizes := []int{sh.in, sh.out, classes}
			root := NewMLP(5, sizes...)
			x := patternBatch(rng, sh.batch, sh.in, pat.zero)
			poisonDeadRows(root.Params()[:sh.in*sh.out], x, sh.out)
			labels := randomLabels(rng, sh.batch, classes)
			want := refPass(root.Params(), sizes, x, labels)
			samePass(t, pat.name+" replica", trainPass(root.Replica(), x, labels), want)
			root.bind(1)
			samePass(t, pat.name+" root, serial", trainPass(root, x, labels), want)
		}
	}

	sizes := []int{24, 48, 20, 10}
	root := NewMLP(9, sizes...)
	rng := xrand.New(33)
	type batch struct {
		x      [][]float32
		labels []int
	}
	var batches []batch
	for _, n := range []int{64, 32, 64, 7, 64} {
		batches = append(batches, batch{randomBatch(rng, n, sizes[0], true), randomLabels(rng, n, classes)})
	}
	replica := root.Replica()
	opt := NewSGD(0.05, 0.9)
	for step := 0; step < 2; step++ {
		for _, b := range batches {
			samePass(t, "reused buffers", trainPass(replica, b.x, b.labels), refPass(root.Params(), sizes, b.x, b.labels))
		}
		before := append([]float32(nil), replica.Params()...)
		opt.Step(root.Params(), replica.Grads())
		if &replica.Params()[0] != &root.Params()[0] || math.Float32bits(before[0]) == math.Float32bits(replica.Params()[0]) {
			t.Fatal("a step on the root's parameters did not reach the replica")
		}
	}

	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			replica := root.Replica()
			for i := 0; i < 6; i++ {
				b := batches[(r+i)%len(batches)]
				got, want := trainPass(replica, b.x, b.labels), refPass(root.Params(), sizes, b.x, b.labels)
				for j := range want.grads {
					if math.Float32bits(got.grads[j]) != math.Float32bits(want.grads[j]) {
						t.Errorf("concurrent replica %d, pass %d: gradient word %d differs", r, i, j)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestEvaluateMatchesOneForward: fanning the batches out over replicas
// counts the hits one Forward over the whole set counts, at a batch size
// that leaves a short last batch and at one larger than the set.
func TestEvaluateMatchesOneForward(t *testing.T) {
	_, test := Synthetic(SyntheticConfig{Classes: 12, Dim: 8, Train: 1, Test: 333, Noise: 1.5, Spread: 1.0, Seed: 4})
	m := NewMLP(2, test.Dim, 16, test.Classes)
	logits := m.Forward(test.X, false)
	want1, want5 := TopKAccuracy(logits, test.Y, 1), TopKAccuracy(logits, test.Y, 5)
	for _, batch := range []int{32, 1000} {
		if top1, top5 := Evaluate(m, test, batch); top1 != want1 || top5 != want5 {
			t.Errorf("batch %d: Evaluate = %v, %v; one Forward gives %v, %v", batch, top1, top5, want1, want5)
		}
	}
}
