package ml

import (
	"math"
	"testing"

	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

func TestDenseForwardKnown(t *testing.T) {
	d := newDense(2, 2)
	params := []float32{1, 2, 3, 4, 0.5, -0.5} // W=[[1,2],[3,4]], b=[0.5,-0.5]
	grads := make([]float32, 6)
	d.bind(params, grads, 0)
	out := d.forward(activations{rows: [][]float32{{1, 1}}}, false).rows
	// y = [1+3+0.5, 2+4-0.5] = [4.5, 5.5]
	if out[0][0] != 4.5 || out[0][1] != 5.5 {
		t.Fatalf("dense forward = %v", out[0])
	}
}

func TestDenseBackwardGradCheck(t *testing.T) {
	// Numerical gradient check on a tiny network.
	rng := xrand.New(1)
	m := NewMLP(7, 3, 4, 2)
	x := [][]float32{
		{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())},
		{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())},
	}
	y := []int{0, 1}

	lossAt := func() float64 {
		logits := m.Forward(x, false)
		l, _ := SoftmaxCrossEntropy(logits, y)
		return l
	}
	m.ZeroGrad()
	logits := m.Forward(x, true)
	_, dLogits := SoftmaxCrossEntropy(logits, y)
	m.Backward(dLogits)
	analytic := append([]float32(nil), m.Grads()...)

	const eps = 1e-3
	params := m.Params()
	for _, i := range []int{0, 3, 7, len(params) - 1, len(params) / 2} {
		orig := params[i]
		params[i] = orig + eps
		lp := lossAt()
		params[i] = orig - eps
		lm := lossAt()
		params[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(analytic[i])) > 1e-2*(math.Abs(numeric)+1e-3) {
			t.Errorf("param %d: numeric %v vs analytic %v", i, numeric, analytic[i])
		}
	}
}

// TestBackwardAfterEvalForwardPanics: a training pass's caches point into
// batch matrices the next pass overwrites — an eval pass too, perhaps at
// another batch size — so an eval forward drops them, and a Backward that
// follows it is the "backward before forward(train)" it looks like rather
// than a gradient against a clobbered batch.
func TestBackwardAfterEvalForwardPanics(t *testing.T) {
	rng := xrand.New(2)
	x := randomBatch(rng, 5, 3, false)
	m := NewMLP(7, 3, 4, 2)
	_, dLogits := SoftmaxCrossEntropy(m.Forward(x, true), randomLabels(rng, len(x), 2))
	m.Forward(x[:2], false)
	const want = "ml: dense backward before forward(train)"
	defer func() {
		if got := recover(); got != want {
			t.Errorf("Backward after an eval forward: recovered %v, want panic %q", got, want)
		}
	}()
	m.Backward(dLogits)
}

// identityOver returns a relu under an n×n identity dense at the given
// worker count: what the dense hands back as ∂L/∂input is ∂L/∂output
// where the relu left the unit live, +0 where it left it dead — the
// rectifier's backward, done by the layer above it.
func identityOver(n, workers int) (*relu, *dense) {
	d := newDense(n, n)
	params := make([]float32, d.paramCount())
	for i := 0; i < n; i++ {
		params[i*n+i] = 1
	}
	d.bind(params, make([]float32, len(params)), workers)
	return &relu{}, d
}

func TestReLU(t *testing.T) {
	r, d := identityOver(3, 1)
	x := [][]float32{{-1, 0, 2}}
	d.forward(r.forward(activations{rows: x}, true), true)
	if x[0][0] != 0 || x[0][1] != 0 || x[0][2] != 2 {
		t.Fatalf("relu forward = %v", x[0])
	}
	g := d.backward([][]float32{{5, 5, 5}}, true)
	if g[0][0] != 0 || g[0][1] != 0 || g[0][2] != 5 {
		t.Fatalf("relu backward = %v", g[0])
	}
}

// TestReLUMatchesBranch pins the branch-free ReLU to the obvious one —
// y = v where v > 0, gx = g where the unit was live, +0 everywhere else —
// bit for bit, on the values a comparison treats specially: both zeros,
// NaNs of either sign, infinities. The forward also runs on rows of
// unequal length; the gradient is the dense's above the relu.
func TestReLUMatchesBranch(t *testing.T) {
	special := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.NaN()), math.Float32frombits(0xffc00001),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	}
	rng := xrand.New(3)
	x := [][]float32{special, make([]float32, 33), make([]float32, 1), {}}
	for _, row := range x[1:] {
		for i := range row {
			row[i] = float32(rng.NormFloat64())
		}
	}
	want := refReLU(x)
	(&relu{}).forward(activations{rows: x}, true)
	for s := range x {
		bitsEqual(t, "relu forward", 1, x[s], want[s])
	}

	n := len(special)
	pre := [][]float32{append([]float32(nil), special...), randomBatch(rng, 1, n, false)[0]}
	y := refReLU(pre)
	gy := randomBatch(rng, len(pre), n, false)
	for _, workers := range matmulWorkerCounts {
		r, d := identityOver(n, workers)
		lent := [][]float32{append([]float32(nil), pre[0]...), append([]float32(nil), pre[1]...)}
		d.forward(r.forward(activations{rows: lent}, true), true)
		gradIn := d.backward(gy, true)
		for s := range pre {
			wantG := make([]float32, n)
			for i, v := range y[s] {
				if v > 0 {
					wantG[i] = gy[s][i]
				}
			}
			bitsEqual(t, "relu backward", workers, gradIn[s], wantG)
		}
	}
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	logits := [][]float32{{0, 0, 0, 0}}
	loss, grad := SoftmaxCrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Errorf("uniform loss = %v, want ln4", loss)
	}
	// grad = p - onehot: 0.25 everywhere except 0.25-1 at label.
	for i, g := range grad[0] {
		want := 0.25
		if i == 2 {
			want = -0.75
		}
		if math.Abs(float64(g)-want) > 1e-6 {
			t.Errorf("grad[%d] = %v, want %v", i, g, want)
		}
	}
}

// TestSoftmaxSumsToOne reads the softmax back out of the cross-entropy
// gradient (p − onehot for a batch of one): it must sum to one and stay
// finite next to a logit whose exponential overflows float64.
func TestSoftmaxSumsToOne(t *testing.T) {
	_, grad := SoftmaxCrossEntropy([][]float32{{1, 2, 3, 800}}, []int{0})
	p := append([]float32(nil), grad[0]...)
	p[0]++
	var sum float64
	for _, v := range p {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("softmax sum = %v", sum)
	}
	if p[3] < 0.999 {
		t.Errorf("dominant logit prob = %v", p[3])
	}
}

func TestSGDMomentum(t *testing.T) {
	o := NewSGD(0.1, 0.9)
	p := []float32{1}
	g := []float32{1}
	o.Step(p, g)
	// v=1, p=1-0.1=0.9
	if math.Abs(float64(p[0])-0.9) > 1e-6 {
		t.Fatalf("p after step1 = %v", p[0])
	}
	o.Step(p, g)
	// v=1.9, p=0.9-0.19=0.71
	if math.Abs(float64(p[0])-0.71) > 1e-6 {
		t.Fatalf("p after step2 = %v", p[0])
	}
}

func TestStepLR(t *testing.T) {
	o := NewSGD(1.0, 0)
	s := NewStepLR(o, 2, 0.5)
	s.EpochEnd()
	if o.LR != 1.0 {
		t.Fatal("decayed too early")
	}
	s.EpochEnd()
	if o.LR != 0.5 {
		t.Fatalf("LR = %v after 2 epochs", o.LR)
	}
	s.EpochEnd()
	s.EpochEnd()
	if o.LR != 0.25 {
		t.Fatalf("LR = %v after 4 epochs", o.LR)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	cfg := SyntheticConfig{Classes: 10, Dim: 8, Train: 100, Test: 50, Seed: 3}
	a1, b1 := Synthetic(cfg)
	a2, b2 := Synthetic(cfg)
	if a1.Len() != 100 || b1.Len() != 50 {
		t.Fatalf("sizes %d/%d", a1.Len(), b1.Len())
	}
	for i := range a1.X {
		if a1.Y[i] != a2.Y[i] {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range a1.X[i] {
			if a1.X[i][j] != a2.X[i][j] {
				t.Fatal("features differ across identical seeds")
			}
		}
	}
	_ = b2
}

func TestBatchesCoverAllOnce(t *testing.T) {
	d := &Dataset{Classes: 2, Dim: 1}
	for i := 0; i < 10; i++ {
		d.X = append(d.X, []float32{float32(i)})
		d.Y = append(d.Y, i%2)
	}
	xs, ys := d.Batches(3, 7)
	if len(xs) != 4 {
		t.Fatalf("batches = %d", len(xs))
	}
	seen := map[float32]bool{}
	total := 0
	for b := range xs {
		if len(xs[b]) != len(ys[b]) {
			t.Fatal("batch x/y mismatch")
		}
		for _, x := range xs[b] {
			if seen[x[0]] {
				t.Fatal("duplicate sample")
			}
			seen[x[0]] = true
			total++
		}
	}
	if total != 10 {
		t.Fatalf("covered %d/10", total)
	}
}

func TestShard(t *testing.T) {
	d := &Dataset{Classes: 2, Dim: 1}
	for i := 0; i < 10; i++ {
		d.X = append(d.X, []float32{float32(i)})
		d.Y = append(d.Y, i%2)
	}
	shards := d.Shard(3)
	if len(shards) != 3 {
		t.Fatal("shard count")
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total != 10 {
		t.Fatalf("sharded total %d", total)
	}
	if shards[0].Len() != 4 || shards[1].Len() != 3 {
		t.Fatalf("shard sizes %d,%d", shards[0].Len(), shards[1].Len())
	}
}

func TestTopKAccuracy(t *testing.T) {
	logits := [][]float32{
		{0.1, 0.9, 0.5}, // label 1 → top1 hit
		{0.9, 0.1, 0.5}, // label 1 → top1 miss, top2 miss (0.5 > 0.1), top3 hit
	}
	labels := []int{1, 1}
	if got := TopKAccuracy(logits, labels, 1); got != 0.5 {
		t.Errorf("top1 = %v", got)
	}
	if got := TopKAccuracy(logits, labels, 3); got != 1.0 {
		t.Errorf("top3 = %v", got)
	}
	if got := TopKAccuracy(nil, nil, 1); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestArgTopK(t *testing.T) {
	got := ArgTopK([]float32{0.1, 0.9, 0.5}, 2)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("ArgTopK = %v", got)
	}
}

// TestTrainingConverges is the end-to-end sanity check: an MLP on an
// easy synthetic task must reach high accuracy in a few epochs.
func TestTrainingConverges(t *testing.T) {
	train, test := Synthetic(SyntheticConfig{
		Classes: 10, Dim: 16, Train: 2000, Test: 500,
		Noise: 0.3, Spread: 1.0, Seed: 11,
	})
	m := NewMLP(5, 16, 64, 10)
	opt := NewSGD(0.05, 0.9)
	for epoch := 0; epoch < 8; epoch++ {
		xs, ys := train.Batches(32, uint64(epoch))
		for b := range xs {
			m.ZeroGrad()
			logits := m.Forward(xs[b], true)
			_, dLogits := SoftmaxCrossEntropy(logits, ys[b])
			m.Backward(dLogits)
			opt.Step(m.Params(), m.Grads())
		}
	}
	top1, top5 := Evaluate(m, test, 64)
	if top1 < 0.9 {
		t.Errorf("top1 = %v after training, want ≥ 0.9", top1)
	}
	if top5 < top1 {
		t.Errorf("top5 %v < top1 %v", top5, top1)
	}
}

// TestGradientsAreDense checks that training gradients are dense and
// roughly zero-centred — the property trimmable encoding relies on.
func TestGradientsAreDense(t *testing.T) {
	train, _ := Synthetic(SyntheticConfig{
		Classes: 10, Dim: 16, Train: 256, Test: 10, Seed: 13,
	})
	m := NewMLP(5, 16, 32, 10)
	xs, ys := train.Batches(64, 0)
	m.ZeroGrad()
	logits := m.Forward(xs[0], true)
	_, dLogits := SoftmaxCrossEntropy(logits, ys[0])
	m.Backward(dLogits)
	g := m.Grads()
	nonzero := 0
	for _, v := range g {
		if v != 0 {
			nonzero++
		}
	}
	if frac := float64(nonzero) / float64(len(g)); frac < 0.5 {
		t.Errorf("only %.0f%% of gradient entries nonzero", frac*100)
	}
	mean := vecmath.Mean(g)
	std := vecmath.Std(g)
	if std == 0 || math.Abs(mean) > std {
		t.Errorf("gradient mean %v not ≪ std %v", mean, std)
	}
}

func TestModelSetParams(t *testing.T) {
	m := NewMLP(1, 4, 2)
	p := make([]float32, m.NumParams())
	for i := range p {
		p[i] = float32(i)
	}
	m.SetParams(p)
	if m.Params()[3] != 3 {
		t.Fatal("SetParams did not copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	m.SetParams([]float32{1})
}
