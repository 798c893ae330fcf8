// Package ml is a compact, deterministic deep-learning stack: dense
// layers with ReLU activations, softmax cross-entropy, SGD with momentum
// and a StepLR schedule — the pieces needed to reproduce the paper's
// training-quality experiments (§4) without PyTorch or a GPU.
//
// The paper trains VGG-19 on CIFAR-100; offline and on CPU we substitute
// an MLP on a synthetic 100-class Gaussian-mixture task (see data.go and
// DESIGN.md). What the experiments measure — how gradient-compression
// error from trimming changes convergence — only requires a non-convex
// model with dense, roughly zero-centred gradients, which this provides.
//
// All parameters live in one flat []float32 and all gradients in another,
// so the distributed trainer can hand the entire gradient to the trimmable
// encoder exactly as DDP hands buckets to its communication hook.
package ml

import (
	"fmt"
	"math"

	"trimgrad/internal/xrand"
)

// Layer is one differentiable stage of a model.
type Layer interface {
	// Forward computes outputs for a batch (rows are samples). When train
	// is true the layer may cache activations for Backward.
	Forward(x [][]float32, train bool) [][]float32
	// Backward consumes ∂L/∂output, accumulates parameter gradients, and
	// returns ∂L/∂input.
	Backward(gradOut [][]float32) [][]float32
	// ParamCount returns how many scalars of the flat buffers this layer
	// owns.
	ParamCount() int
	// bind points the layer at its slices of the model's parameter and
	// gradient buffers.
	bind(params, grads []float32)
	// initialize fills the layer's parameters.
	initialize(rng *xrand.Rand)
}

// Dense is a fully-connected layer: y = xW + b, with W stored row-major
// (In×Out).
type Dense struct {
	In, Out int
	w, b    []float32
	dw, db  []float32
	x       [][]float32 // cached input for backward
}

// NewDense returns an uninitialized dense layer.
func NewDense(in, out int) *Dense { return &Dense{In: in, Out: out} }

// ParamCount implements Layer.
func (d *Dense) ParamCount() int { return d.In*d.Out + d.Out }

func (d *Dense) bind(params, grads []float32) {
	nw := d.In * d.Out
	d.w, d.b = params[:nw], params[nw:nw+d.Out]
	d.dw, d.db = grads[:nw], grads[nw:nw+d.Out]
}

func (d *Dense) initialize(rng *xrand.Rand) {
	// He initialization, appropriate for the ReLU nonlinearity.
	std := math.Sqrt(2 / float64(d.In))
	for i := range d.w {
		d.w[i] = float32(rng.NormFloat64() * std)
	}
	for i := range d.b {
		d.b[i] = 0
	}
}

// Forward implements Layer. The matmul runs cache-blocked on the par
// pool (see matmul.go); results are bit-identical at every worker count.
func (d *Dense) Forward(x [][]float32, train bool) [][]float32 {
	// Validate before fanning out: a panic must fire on the caller's
	// goroutine, not inside a pool worker.
	for _, row := range x {
		if len(row) != d.In {
			panic(fmt.Sprintf("ml: dense expects %d inputs, got %d", d.In, len(row)))
		}
	}
	if train {
		d.x = x
	}
	out := sliceRows(len(x), d.Out)
	denseForward(out, x, d.w, d.b, d.Out)
	return out
}

// Backward implements Layer. Three kernels replace the fused serial
// loop: ∂L/∂input parallel over samples, ∂L/∂W parallel over weight rows
// (each owned by exactly one worker so accumulation order is fixed), and
// the small ∂L/∂b reduction serial.
func (d *Dense) Backward(gradOut [][]float32) [][]float32 {
	if d.x == nil {
		panic("ml: dense backward before forward(train)")
	}
	gradIn := sliceRows(len(gradOut), d.In)
	denseBackwardInput(gradIn, gradOut, d.w, d.Out)
	denseBackwardWeights(d.dw, d.x, gradOut, d.Out)
	denseBackwardBias(d.db, gradOut)
	return gradIn
}

// sliceRows allocates an n×dim matrix as one backing array, halving the
// batch-loop allocation count versus per-row makes.
func sliceRows(n, dim int) [][]float32 {
	rows := make([][]float32, n)
	backing := make([]float32, n*dim)
	for s := range rows {
		rows[s] = backing[s*dim : (s+1)*dim]
	}
	return rows
}

// rowsLike allocates a zeroed matrix with x's row lengths as one backing
// array.
func rowsLike(x [][]float32) [][]float32 {
	total := 0
	for _, row := range x {
		total += len(row)
	}
	rows := make([][]float32, len(x))
	backing := make([]float32, total)
	for s, row := range x {
		rows[s], backing = backing[:len(row):len(row)], backing[len(row):]
	}
	return rows
}

// keepIf returns v when keep holds and +0 otherwise. The choice is made on
// v's bits, as integers, so it compiles to a conditional move: a ReLU
// unit is live about half the time, which a branch cannot predict.
func keepIf(v float32, keep bool) float32 {
	bits := math.Float32bits(v)
	if !keep {
		bits = 0
	}
	return math.Float32frombits(bits)
}

// ReLU is the rectified-linear activation.
type ReLU struct {
	y [][]float32 // cached output for backward: y > 0 exactly where the input was
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// ParamCount implements Layer.
func (r *ReLU) ParamCount() int              { return 0 }
func (r *ReLU) bind(params, grads []float32) {}
func (r *ReLU) initialize(rng *xrand.Rand)   {}

// Forward implements Layer.
func (r *ReLU) Forward(x [][]float32, train bool) [][]float32 {
	out := rowsLike(x)
	for s, row := range x {
		y := out[s][:len(row)]
		for i, v := range row {
			y[i] = keepIf(v, v > 0)
		}
	}
	if train {
		r.y = out
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut [][]float32) [][]float32 {
	if r.y == nil {
		panic("ml: relu backward before forward(train)")
	}
	gradIn := rowsLike(gradOut)
	for s, gy := range gradOut {
		gx, y := gradIn[s], r.y[s][:len(gy)]
		for i, g := range gy {
			gx[i] = keepIf(g, y[i] > 0)
		}
	}
	return gradIn
}

// Model is a feed-forward stack of layers over flat parameter/gradient
// buffers.
type Model struct {
	layers []Layer
	params []float32
	grads  []float32
}

// NewModel assembles layers, allocates the flat buffers, and initializes
// parameters deterministically from seed.
func NewModel(seed uint64, layers ...Layer) *Model {
	total := 0
	for _, l := range layers {
		total += l.ParamCount()
	}
	m := &Model{
		layers: layers,
		params: make([]float32, total),
		grads:  make([]float32, total),
	}
	off := 0
	rng := xrand.New(seed)
	for _, l := range layers {
		n := l.ParamCount()
		l.bind(m.params[off:off+n], m.grads[off:off+n])
		l.initialize(rng)
		off += n
	}
	return m
}

// NewMLP builds Dense+ReLU stacks: sizes[0] inputs, hidden layers, and
// sizes[len-1] output logits.
func NewMLP(seed uint64, sizes ...int) *Model {
	if len(sizes) < 2 {
		panic("ml: MLP needs at least input and output sizes")
	}
	var layers []Layer
	for i := 0; i < len(sizes)-1; i++ {
		layers = append(layers, NewDense(sizes[i], sizes[i+1]))
		if i < len(sizes)-2 {
			layers = append(layers, NewReLU())
		}
	}
	return NewModel(seed, layers...)
}

// Forward runs the batch through all layers.
func (m *Model) Forward(x [][]float32, train bool) [][]float32 {
	for _, l := range m.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates ∂L/∂logits through all layers, accumulating
// parameter gradients.
func (m *Model) Backward(gradLogits [][]float32) {
	g := gradLogits
	for i := len(m.layers) - 1; i >= 0; i-- {
		g = m.layers[i].Backward(g)
	}
}

// ZeroGrad clears the gradient buffer.
func (m *Model) ZeroGrad() {
	for i := range m.grads {
		m.grads[i] = 0
	}
}

// Params returns the live flat parameter buffer.
func (m *Model) Params() []float32 { return m.params }

// Grads returns the live flat gradient buffer.
func (m *Model) Grads() []float32 { return m.grads }

// SetParams overwrites all parameters (used to sync replicas).
func (m *Model) SetParams(p []float32) {
	if len(p) != len(m.params) {
		panic("ml: SetParams length mismatch")
	}
	copy(m.params, p)
}

// NumParams returns the total parameter count.
func (m *Model) NumParams() int { return len(m.params) }
