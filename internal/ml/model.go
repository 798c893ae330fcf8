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

// layer is one differentiable stage of a model: a dense or a relu. Every
// model is NewMLP's stack, dense (relu dense)*, and a layer relies on that
// shape. A layer owns the batch matrices it returns and reuses them: a
// returned matrix is valid until the layer's next call of the same method.
type layer interface {
	// forward computes outputs for a batch (rows are samples), taking the
	// matrix with what the layer below knows about it. When train is true
	// the layer caches what backward needs; an eval pass drops it.
	forward(x activations, train bool) activations
	// backward consumes ∂L/∂output — a layer may overwrite it — accumulates
	// parameter gradients, and returns ∂L/∂input with +0 stored wherever
	// the rectifier below left a unit dead. A model's first layer is not
	// asked for ∂L/∂input (wantIn false): nothing reads the data's gradient.
	backward(gradOut [][]float32, wantIn bool) [][]float32
	// paramCount returns how many scalars of the flat buffers this layer
	// owns.
	paramCount() int
	// bind points the layer at its slices of the model's parameter and
	// gradient buffers and fixes the worker count of its kernels (0: the
	// par crew's size).
	bind(params, grads []float32, workers int)
	// initialize fills the layer's parameters.
	initialize(rng *xrand.Rand)
	// replica returns an unbound layer of the same shape.
	replica() layer
}

// activations is a batch matrix on its way up a model.
type activations struct {
	rows [][]float32
	// live lists rows' non-zero entries if the relu that wrote them
	// rectified them; nil for the model's input, which nobody has listed.
	live *liveSet
}

// batchBuf is a batch matrix a layer owns: one backing array, grown when a
// batch needs more and otherwise reused as it is. Its contents are whatever
// the last pass left, so a kernel writing into it must store every element.
type batchBuf struct {
	rows    [][]float32
	backing []float32
}

// grow returns v with length n: v's own array while that is large enough,
// contents and all, a new one otherwise.
func grow[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// grow returns n row headers and total floats of backing.
func (b *batchBuf) grow(n, total int) ([][]float32, []float32) {
	b.rows, b.backing = grow(b.rows, n), grow(b.backing, total)
	return b.rows, b.backing
}

// shape returns the buffer as an n×dim matrix.
func (b *batchBuf) shape(n, dim int) [][]float32 {
	rows, backing := b.grow(n, n*dim)
	for s := range rows {
		rows[s] = backing[s*dim : (s+1)*dim : (s+1)*dim]
	}
	return rows
}

// like returns the buffer as a matrix with x's row lengths.
func (b *batchBuf) like(x [][]float32) [][]float32 {
	total := 0
	for _, row := range x {
		total += len(row)
	}
	rows, backing := b.grow(len(x), total)
	for s, row := range x {
		rows[s], backing = backing[:len(row):len(row)], backing[len(row):]
	}
	return rows
}

// dense is a fully-connected layer: y = xW + b, with W stored row-major
// (in×out).
type dense struct {
	in, out int
	w, b    []float32
	dw, db  []float32
	workers int
	// Cached by a training forward for backward, dropped by an eval one: the
	// input and its live set, the relu's that wrote the input or, for the
	// model's input, own.
	x         [][]float32
	live      *liveSet
	own       liveSet // the model's input's non-zero entries
	y, gradIn batchBuf
}

func newDense(in, out int) *dense { return &dense{in: in, out: out} }

func (d *dense) paramCount() int { return d.in*d.out + d.out }

func (d *dense) bind(params, grads []float32, workers int) {
	nw := d.in * d.out
	d.w, d.b = params[:nw], params[nw:nw+d.out]
	d.dw, d.db = grads[:nw], grads[nw:nw+d.out]
	d.workers = workers
}

func (d *dense) replica() layer { return newDense(d.in, d.out) }

func (d *dense) initialize(rng *xrand.Rand) {
	// He initialization, appropriate for the ReLU nonlinearity.
	std := math.Sqrt(2 / float64(d.in))
	for i := range d.w {
		d.w[i] = float32(rng.NormFloat64() * std)
	}
	for i := range d.b {
		d.b[i] = 0
	}
}

// forward runs the matmul register-blocked over the input's live set, on
// the par crew unless the layer is a replica's (see matmul.go); results are
// bit-identical at every worker count.
func (d *dense) forward(x activations, train bool) activations {
	// Validate before fanning out: a panic must fire on the caller's
	// goroutine, not inside a crew member.
	for _, row := range x.rows {
		if len(row) != d.in {
			panic(fmt.Sprintf("ml: dense expects %d inputs, got %d", d.in, len(row)))
		}
	}
	live := x.live
	if live == nil {
		d.own.list(x.rows, false)
		live = &d.own
	}
	// An eval pass overwrites the matrices the cached ones point into.
	d.x, d.live = nil, nil
	if train {
		d.x, d.live = x.rows, live
	}
	y := d.y.shape(len(x.rows), d.out)
	denseForward(y, x.rows, d.w, d.b, d.out, d.workers, live)
	return activations{rows: y}
}

// backward runs three kernels: ∂L/∂W parallel over weight rows (each owned
// by exactly one worker so accumulation order is fixed), the small ∂L/∂b
// reduction serial, and ∂L/∂input parallel over samples. A dense asked for
// ∂L/∂input sits on a relu, so d.live is the rectifier's set: the input
// gradient is computed for its live units and +0 stored for the rest,
// which is the relu's backward done here.
func (d *dense) backward(gradOut [][]float32, wantIn bool) [][]float32 {
	if d.x == nil {
		panic("ml: dense backward before forward(train)")
	}
	d.live.transpose()
	denseBackwardWeights(d.dw, d.x, gradOut, d.out, d.workers, d.live)
	denseBackwardBias(d.db, gradOut)
	if !wantIn {
		return nil
	}
	gradIn := d.gradIn.shape(len(gradOut), d.in)
	denseBackwardInput(gradIn, gradOut, d.w, d.out, d.workers, d.live)
	return gradIn
}

// relu is the rectified-linear activation. It rectifies the dense below's
// matrix in place and lists the units it leaves live as it writes them
// (matmul.go), so the dense above never tests an activation and masks
// ∂L/∂input itself.
type relu struct{ live liveSet }

func (r *relu) paramCount() int                     { return 0 }
func (r *relu) bind(params, grads []float32, _ int) {}
func (r *relu) initialize(rng *xrand.Rand)          {}
func (r *relu) replica() layer                      { return &relu{} }

func (r *relu) forward(x activations, _ bool) activations {
	r.live.list(x.rows, true)
	return activations{rows: x.rows, live: &r.live}
}

// backward hands on gradOut as it is: the dense above already stored +0
// wherever the unit was dead.
func (r *relu) backward(gradOut [][]float32, _ bool) [][]float32 { return gradOut }

// Model is a feed-forward stack of layers over flat parameter/gradient
// buffers. Its layers own the batch matrices a pass produces, so one model
// runs one pass at a time; concurrent passes over the same parameters each
// take their own Replica.
type Model struct {
	layers []layer
	params []float32
	grads  []float32
	evals  []*Model // Evaluate's forward-only replicas, kept between calls
}

// bind hands every layer its slices of the flat buffers and the kernel
// worker count.
func (m *Model) bind(workers int) {
	off := 0
	for _, l := range m.layers {
		n := l.paramCount()
		l.bind(m.params[off:off+n], m.grads[off:off+n], workers)
		off += n
	}
}

// Replica returns a model for one of several concurrent passes over m's
// parameters. It shares m's parameter buffer — read-only during a pass, so
// an SGD.Step or SetParams between passes is seen by m and every replica —
// and owns its gradient buffer, activation caches and batch matrices. Its
// kernels run on the calling goroutine: a replica's pass is the unit that
// is handed to the par crew, and a task on the crew never forks it.
func (m *Model) Replica() *Model { return m.replica(make([]float32, len(m.params))) }

// replica is Replica over the given gradient buffer.
func (m *Model) replica(grads []float32) *Model {
	r := &Model{layers: make([]layer, len(m.layers)), params: m.params, grads: grads}
	for i, l := range m.layers {
		r.layers[i] = l.replica()
	}
	r.bind(1)
	return r
}

// evalReplicas returns n replicas of m for forward passes only: they never
// write a gradient, so they are bound to m's buffer instead of one each.
// They stay on m — which runs one pass at a time, Evaluate's included — so
// only the first call that needs them builds them and their batch matrices.
func (m *Model) evalReplicas(n int) []*Model {
	for len(m.evals) < n {
		m.evals = append(m.evals, m.replica(m.grads))
	}
	return m.evals[:n]
}

// NewMLP builds a dense (relu dense)* stack — sizes[0] inputs, hidden
// layers, and sizes[len-1] output logits — allocates the flat buffers, and
// initializes parameters deterministically from seed. Its kernels fan out
// over the par crew.
func NewMLP(seed uint64, sizes ...int) *Model {
	if len(sizes) < 2 {
		panic("ml: MLP needs at least input and output sizes")
	}
	m := &Model{}
	total := 0
	for i := 0; i < len(sizes)-1; i++ {
		d := newDense(sizes[i], sizes[i+1])
		m.layers = append(m.layers, d)
		total += d.paramCount()
		if i < len(sizes)-2 {
			m.layers = append(m.layers, &relu{})
		}
	}
	m.params, m.grads = make([]float32, total), make([]float32, total)
	m.bind(0)
	rng := xrand.New(seed)
	for _, l := range m.layers {
		l.initialize(rng)
	}
	return m
}

// Forward runs the batch through all layers. The returned logits belong
// to the model and are valid until its next pass.
func (m *Model) Forward(x [][]float32, train bool) [][]float32 {
	a := activations{rows: x}
	for _, l := range m.layers {
		a = l.forward(a, train)
	}
	return a.rows
}

// Backward propagates ∂L/∂logits of the preceding Forward(x, true) through
// all layers, accumulating parameter gradients. The first layer's ∂L/∂x is
// not computed: nothing reads the gradient of the data.
func (m *Model) Backward(gradLogits [][]float32) {
	g := gradLogits
	for i := len(m.layers) - 1; i >= 0; i-- {
		g = m.layers[i].backward(g, i > 0)
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

// SetParams overwrites all parameters, for the model and every replica of
// it.
func (m *Model) SetParams(p []float32) {
	if len(p) != len(m.params) {
		panic("ml: SetParams length mismatch")
	}
	copy(m.params, p)
}

// NumParams returns the total parameter count.
func (m *Model) NumParams() int { return len(m.params) }
