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

// Layer is one differentiable stage of a model. A layer owns the batch
// matrices it returns and reuses them: a returned matrix is valid until
// the layer's next call of the same method.
type Layer interface {
	// Forward computes outputs for a batch (rows are samples). When train
	// is true the layer caches what Backward needs; an eval pass drops it.
	Forward(x [][]float32, train bool) [][]float32
	// Backward consumes ∂L/∂output — a layer may overwrite it — accumulates
	// parameter gradients, and returns ∂L/∂input.
	Backward(gradOut [][]float32) [][]float32
	// ParamCount returns how many scalars of the flat buffers this layer
	// owns.
	ParamCount() int
	// forward is Forward inside a model, where a matrix travels with what
	// the layer below knows about it.
	forward(x activations, train bool) activations
	// backward is Backward inside a model. masked: the layer above already
	// stored +0 in gradOut wherever this layer's output was dead; the second
	// result says the same of ∂L/∂input and the layer below. A model's first
	// layer is not asked for ∂L/∂input: nothing reads the data's gradient.
	backward(gradOut [][]float32, masked, wantIn bool) (gradIn [][]float32, maskedBelow bool)
	// bind points the layer at its slices of the model's parameter and
	// gradient buffers and fixes the worker count of its kernels (0: the
	// par pool's size).
	bind(params, grads []float32, workers int)
	// initialize fills the layer's parameters.
	initialize(rng *xrand.Rand)
	// replica returns an unbound layer of the same shape.
	replica() Layer
}

// activations is a batch matrix on its way up a model.
type activations struct {
	rows [][]float32
	// live lists rows' non-zero entries if the layer that wrote them
	// rectified them; nil means nobody has listed them.
	live *liveSet
	// scratch: rows belong to a layer below that will not read them again,
	// so the receiver may overwrite them.
	scratch bool
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

// Dense is a fully-connected layer: y = xW + b, with W stored row-major
// (In×Out).
type Dense struct {
	In, Out int
	w, b    []float32
	dw, db  []float32
	workers int
	// Cached by a training forward for backward, dropped by an eval one: the
	// input and its live set. That is the set of the rectifier that wrote
	// the input — ∂L/∂input is then computed for its units only — or own.
	x           [][]float32
	live        *liveSet
	own, every  liveSet // when the input brought no live set: its non-zero entries; every unit
	out, gradIn batchBuf
}

// NewDense returns an uninitialized dense layer.
func NewDense(in, out int) *Dense { return &Dense{In: in, Out: out} }

// ParamCount implements Layer.
func (d *Dense) ParamCount() int { return d.In*d.Out + d.Out }

func (d *Dense) bind(params, grads []float32, workers int) {
	nw := d.In * d.Out
	d.w, d.b = params[:nw], params[nw:nw+d.Out]
	d.dw, d.db = grads[:nw], grads[nw:nw+d.Out]
	d.workers = workers
}

func (d *Dense) replica() Layer { return NewDense(d.In, d.Out) }

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

// Forward implements Layer. The matmul runs register-blocked over the
// input's live set, on the par pool unless the layer is a replica's (see
// matmul.go); results are bit-identical at every worker count.
func (d *Dense) Forward(x [][]float32, train bool) [][]float32 {
	return d.forward(activations{rows: x}, train).rows
}

func (d *Dense) forward(x activations, train bool) activations {
	// Validate before fanning out: a panic must fire on the caller's
	// goroutine, not inside a pool worker.
	for _, row := range x.rows {
		if len(row) != d.In {
			panic(fmt.Sprintf("ml: dense expects %d inputs, got %d", d.In, len(row)))
		}
	}
	live := x.live
	if live == nil {
		d.own.list(nil, x.rows)
		live = &d.own
	}
	// An eval pass overwrites the matrices the cached ones point into.
	d.x, d.live = nil, nil
	if train {
		d.x, d.live = x.rows, live
	}
	out := d.out.shape(len(x.rows), d.Out)
	denseForward(out, x.rows, d.w, d.b, d.Out, d.workers, live)
	return activations{rows: out, scratch: true}
}

// Backward implements Layer with three kernels: ∂L/∂W parallel over weight
// rows (each owned by exactly one worker so accumulation order is fixed),
// the small ∂L/∂b reduction serial, and ∂L/∂input parallel over samples.
func (d *Dense) Backward(gradOut [][]float32) [][]float32 {
	gradIn, _ := d.backward(gradOut, false, true)
	return gradIn
}

func (d *Dense) backward(gradOut [][]float32, _, wantIn bool) ([][]float32, bool) {
	if d.x == nil {
		panic("ml: dense backward before forward(train)")
	}
	d.live.transpose()
	denseBackwardWeights(d.dw, d.x, gradOut, d.Out, d.workers, d.live)
	denseBackwardBias(d.db, gradOut)
	if !wantIn {
		return nil, false
	}
	mask := d.live
	if mask == &d.own { // nobody rectified the input: every unit has a gradient
		d.every.listAll(len(gradOut), d.In)
		mask = &d.every
	}
	gradIn := d.gradIn.shape(len(gradOut), d.In)
	denseBackwardInput(gradIn, gradOut, d.w, d.Out, d.workers, mask)
	return gradIn, mask == d.live
}

// ReLU is the rectified-linear activation. It lists the units it leaves
// live as it writes them (matmul.go), so the Dense above never tests an
// activation and masks ∂L/∂input itself.
type ReLU struct {
	live    liveSet
	trained bool     // live is a training pass's
	out     batchBuf // used only when the input is not the ReLU's to overwrite
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// ParamCount implements Layer.
func (r *ReLU) ParamCount() int                     { return 0 }
func (r *ReLU) bind(params, grads []float32, _ int) {}
func (r *ReLU) initialize(rng *xrand.Rand)          {}
func (r *ReLU) replica() Layer                      { return NewReLU() }

// Forward implements Layer.
func (r *ReLU) Forward(x [][]float32, train bool) [][]float32 {
	return r.forward(activations{rows: x}, train).rows
}

// forward rectifies the layer below's matrix in place; only a caller's own
// matrix gets a copy.
func (r *ReLU) forward(x activations, train bool) activations {
	out := x.rows
	if !x.scratch {
		out = r.out.like(x.rows)
	}
	r.live.list(out, x.rows)
	r.trained = train
	return activations{rows: out, live: &r.live, scratch: true}
}

// Backward implements Layer: gradOut, with +0 stored where the unit was
// dead.
func (r *ReLU) Backward(gradOut [][]float32) [][]float32 {
	gradIn, _ := r.backward(gradOut, false, true)
	return gradIn
}

func (r *ReLU) backward(gradOut [][]float32, masked, _ bool) ([][]float32, bool) {
	if !r.trained {
		panic("ml: relu backward before forward(train)")
	}
	if !masked {
		r.live.maskRows(gradOut)
	}
	return gradOut, false
}

// Model is a feed-forward stack of layers over flat parameter/gradient
// buffers. Its layers own the batch matrices a pass produces, so one model
// runs one pass at a time; concurrent passes over the same parameters each
// take their own Replica.
type Model struct {
	layers []Layer
	params []float32
	grads  []float32
	evals  []*Model // Evaluate's forward-only replicas, kept between calls
}

// NewModel assembles layers, allocates the flat buffers, and initializes
// parameters deterministically from seed. Its kernels fan out over the par
// pool.
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
	m.bind(0)
	rng := xrand.New(seed)
	for _, l := range layers {
		l.initialize(rng)
	}
	return m
}

// bind hands every layer its slices of the flat buffers and the kernel
// worker count.
func (m *Model) bind(workers int) {
	off := 0
	for _, l := range m.layers {
		n := l.ParamCount()
		l.bind(m.params[off:off+n], m.grads[off:off+n], workers)
		off += n
	}
}

// Replica returns a model for one of several concurrent passes over m's
// parameters. It shares m's parameter buffer — read-only during a pass, so
// an SGD.Step or SetParams between passes is seen by m and every replica —
// and owns its gradient buffer, activation caches and batch matrices. Its
// kernels run on the calling goroutine: a replica's pass is the unit that
// is handed to the par pool, and a task on the pool never forks it.
func (m *Model) Replica() *Model { return m.replica(make([]float32, len(m.params))) }

// replica is Replica over the given gradient buffer.
func (m *Model) replica(grads []float32) *Model {
	r := &Model{layers: make([]Layer, len(m.layers)), params: m.params, grads: grads}
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
	g, masked := gradLogits, false
	for i := len(m.layers) - 1; i >= 0; i-- {
		g, masked = m.layers[i].backward(g, masked, i > 0)
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
