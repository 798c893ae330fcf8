// Package ddp is the distributed data-parallel trainer used to regenerate
// the paper's evaluation: N workers compute gradients on separate data
// shards, exchange them through the trimmable-gradient codec, and apply
// the aggregated gradient with SGD+momentum under a StepLR schedule.
//
// One Trainer runs one loop; its constructors differ only in the exchange.
// NewTrainer's has an injector decide each packet's fate (the paper's §4
// "pre-set random probabilistic dropping/trimming"); NewNetTrainer's runs
// each round over a live netsim fabric (§5.1's "full-scale simulation").
// Each refuses what its exchange never reads: WithFabric is an error for
// NewTrainer, and so are DropRate with a Scheme and TrimRate, Injector or
// ErrorFeedback without one; TrimRate, DropRate, Injector and
// ErrorFeedback are errors for NewNetTrainer.
//
// Wall-clock time is simulated, not measured: a calibrated cost model gives
// each round's compute and encode time (and NewTrainer's comm time), as
// time to accuracy depends on per-round costs the paper reports from its
// GPU testbed: trimmable encoding adds ~42–68% to a round, the RHT encoder
// is ~18% slower than the scalar ones, and the reliable baseline slows
// down 5–10× once drops exceed ~1–2% (§4.4). The *relative* costs are
// also measured for real by this repository's Go benchmarks
// (bench_test.go); the model keeps the training loop deterministic and
// fast.
package ddp

import (
	"errors"
	"fmt"
	"math"

	"trimgrad/internal/core"
	"trimgrad/internal/ml"
	"trimgrad/internal/obs"
	"trimgrad/internal/par"
	"trimgrad/internal/quant"
	"trimgrad/internal/sparse"
	"trimgrad/internal/vecmath"
)

// The cost model's calibration (DESIGN.md), applied on top of a
// CostModel's Compute and Comm.
const (
	// encodeScalarFrac is the encode+decode overhead of the scalar
	// schemes (sign/SQ/SD), as a fraction of Compute+Comm. The paper
	// reports 42–68% total hook overhead; 0.45 is our default.
	encodeScalarFrac = 0.45
	// rhtFactor is the encode cost of a rotated scheme (RHT, RHTLinear,
	// Eden) relative to scalar (paper: ~1.18 for RHT).
	rhtFactor = 1.18
	// dropKneeRate is the loss rate the reliable baseline absorbs without
	// slowdown (paper: 0.15–0.25%).
	dropKneeRate = 0.002
	// dropSlowdownPerUnit is the round-time multiplier growth per unit of
	// drop rate beyond the knee; calibrated so ~1.5% drops give the
	// paper's 5–10× slowdown (1.5% drops → ≈ 6.85× round time).
	dropSlowdownPerUnit = 450
	// dropTimeoutRate is the loss rate beyond which the baseline starts
	// reporting timeout errors (the run is marked failed).
	dropTimeoutRate = 0.05
)

// CostModel converts a training round into simulated wall-clock seconds.
type CostModel struct {
	// Compute is forward+backward time per round.
	Compute float64
	// Comm is gradient-exchange time per round on an uncongested network.
	Comm float64
}

// DefaultCostModel returns the calibration described in DESIGN.md: 100 ms
// of forward+backward and a 50 ms exchange per round.
func DefaultCostModel() CostModel { return CostModel{Compute: 0.100, Comm: 0.050} }

// RoundTime returns the simulated seconds one training round takes for
// the given scheme (baseline == nil means uncompressed NCCL-style) at the
// given drop rate (only the baseline pays for drops; trimming avoids
// retransmission by design).
func (c CostModel) RoundTime(scheme *quant.Params, dropRate float64) float64 {
	base := c.Compute + c.Comm
	if scheme == nil {
		mult := 1.0
		if dropRate > dropKneeRate {
			mult += float64(dropSlowdownPerUnit * (dropRate - dropKneeRate))
		}
		return base * mult
	}
	return base + c.EncodeTime(scheme)
}

// EncodeTime returns just the encode+decode component (Figure 5's
// breakdown).
func (c CostModel) EncodeTime(scheme *quant.Params) float64 {
	if scheme == nil {
		return 0
	}
	enc := (c.Compute + c.Comm) * encodeScalarFrac
	if quant.Rotated(scheme.Scheme) {
		enc *= rhtFactor
	}
	return enc
}

// Config describes one training run.
type Config struct {
	// Workers is the data-parallel width.
	Workers int
	// Scheme selects the trimmable encoding; nil runs the uncompressed
	// reliable baseline.
	Scheme *quant.Params
	// TrimRate is the per-packet probability of in-network trimming
	// (NewTrainer with a Scheme only).
	TrimRate float64
	// DropRate is the per-packet loss probability for the baseline
	// (NewTrainer without a Scheme only): repaired by retransmission at a
	// wall-clock cost, so gradients stay exact.
	DropRate float64
	// RowSize is the codec row size (power of two).
	RowSize int
	// Batch is the per-worker batch size.
	Batch int
	// Epochs bounds the run.
	Epochs int
	// LR, Momentum, StepSize, Gamma are the §4 hyper-parameters.
	LR, Momentum float64
	StepSize     int
	Gamma        float64
	// Seed fixes model init, batch order, and injector randomness.
	Seed uint64
	// Cost is the wall-clock model; zero value means DefaultCostModel.
	Cost CostModel
	// Injector overrides the TrimRate injector (used for transcript
	// replay, §5.4). Optional.
	Injector core.Injector
	// ErrorFeedback enables per-worker error-feedback compensation: the
	// residual each round's compression discarded is added back before
	// the next round's encode. The paper does not use EF; the ablation
	// shows it rescues the high-variance scalar schemes at heavy trim.
	ErrorFeedback bool
	// EvalEvery evaluates test accuracy every this many epochs (default 1).
	EvalEvery int
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.RowSize == 0 {
		c.RowSize = 1 << 10
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.StepSize == 0 {
		c.StepSize = 20
	}
	if c.Gamma == 0 {
		c.Gamma = 0.5
	}
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCostModel()
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 1
	}
	return c
}

// validate refuses values no run can mean; zero still means default
// (withDefaults). Both constructors call it, so a bad flag or sweep cell
// fails before any training instead of printing a table of nonsense.
func (c Config) validate() error {
	type field struct {
		name string
		v    float64
	}
	for _, f := range []field{{"TrimRate", c.TrimRate}, {"DropRate", c.DropRate}} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("ddp: %s must be a probability in [0, 1], got %v", f.name, f.v)
		}
	}
	for _, f := range []field{{"LR", c.LR}, {"Momentum", c.Momentum}, {"Gamma", c.Gamma}} {
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("ddp: %s must be finite and non-negative, got %v", f.name, f.v)
		}
	}
	for _, f := range []field{{"Workers", float64(c.Workers)}, {"Epochs", float64(c.Epochs)},
		{"Batch", float64(c.Batch)}, {"StepSize", float64(c.StepSize)}, {"EvalEvery", float64(c.EvalEvery)}} {
		if f.v < 0 {
			return fmt.Errorf("ddp: %s must not be negative, got %v", f.name, f.v)
		}
	}
	return nil
}

// SchemeName names the run's encoding for tables.
func (c Config) SchemeName() string {
	if c.Scheme == nil {
		return "baseline"
	}
	return c.Scheme.Scheme.String()
}

// Point is one evaluation sample along a training run.
type Point struct {
	Epoch    int
	Wall     float64 // simulated seconds since start
	Loss     float64
	Top1     float64
	Top5     float64
	TrimFrac float64 // observed coordinate trim fraction this epoch
}

// Result summarizes a run.
type Result struct {
	Config    Config
	Points    []Point
	Diverged  bool
	TimedOut  bool // baseline DropRate above the 5% timeout rate (§4.4 timeouts)
	FinalTop1 float64
	FinalTop5 float64
	WallTotal float64
}

// TimeToAccuracy returns the earliest simulated time at which top-1
// accuracy reached target, and whether it ever did.
func (r *Result) TimeToAccuracy(target float64) (float64, bool) {
	for _, p := range r.Points {
		if p.Top1 >= target {
			return p.Wall, true
		}
	}
	return 0, false
}

// An Option configures a Trainer at construction.
type Option func(*trainerOpts)

type trainerOpts struct {
	cfg    Config
	hidden []int
	reg    *obs.Registry
	fabric *FabricConfig
}

// WithConfig sets the training configuration.
func WithConfig(cfg Config) Option { return func(o *trainerOpts) { o.cfg = cfg } }

// WithHidden sets the MLP hidden-layer sizes.
func WithHidden(sizes ...int) Option { return func(o *trainerOpts) { o.hidden = sizes } }

// WithRegistry attaches a telemetry registry: the trainer records
// per-round ddp.round.compute / ddp.round.encode / ddp.round.comm spans
// (the Figure 5 breakdown), and — for NewNetTrainer — the registry is
// bound to the fabric so every layer underneath reports into it too.
//
// Clock domains: ddp spans are stamped on the trainer's modeled wall
// clock (nanoseconds of simulated training time), while fabric-level
// spans and metrics in the same registry use netsim virtual time. Both
// are deterministic; they are just different time axes.
func WithRegistry(r *obs.Registry) Option { return func(o *trainerOpts) { o.reg = r } }

// WithFabric sets the simulated network under NewNetTrainer's trainer;
// NewTrainer refuses it.
func WithFabric(f FabricConfig) Option { return func(o *trainerOpts) { o.fabric = &f } }

// Trainer runs one configuration on a dataset. NewTrainer and
// NewNetTrainer build the same loop around different exchanges.
type Trainer struct {
	cfg   Config
	model *ml.Model
	train *ml.Dataset
	test  *ml.Dataset
	obs   *obs.Registry
	// exchange averages one round's gradients under message ids from
	// msgBase on; a round uses msgSpan of them.
	exchange exchangeFunc
	msgSpan  uint32
}

type exchangeFunc func(epoch uint64, msgBase uint32, grads [][]float32) (exchanged, error)

// exchanged is what one round's exchange reports: the average every
// replica applies, the seconds the round adds to the wall clock and to
// its ddp.round.comm span, and the coordinates trimmed of those carried.
type exchanged struct {
	avg            []float32
	wall, comm     float64
	trimmed, total int
}

// newTrainer does what both constructors share: it applies the options,
// validates and defaults the Config, refuses a training set that would
// leave a worker's shard empty (no rounds, NaN losses) and builds the MLP
// (sized to the dataset, so every configuration starts from identical
// weights). The caller sets the exchange.
func newTrainer(train, test *ml.Dataset, opts []Option) (*Trainer, *FabricConfig, error) {
	var o trainerOpts
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.cfg.validate(); err != nil {
		return nil, nil, err
	}
	cfg := o.cfg.withDefaults()
	if train.Len() == 0 {
		return nil, nil, errors.New("ddp: empty training set")
	}
	if cfg.Workers > train.Len() {
		return nil, nil, fmt.Errorf("ddp: Workers must not exceed the training samples, got %d workers for %d samples",
			cfg.Workers, train.Len())
	}
	sizes := append([]int{train.Dim}, o.hidden...)
	sizes = append(sizes, train.Classes)
	t := &Trainer{cfg: cfg, model: ml.NewMLP(cfg.Seed, sizes...), train: train, test: test, obs: o.reg}
	return t, o.fabric, nil
}

// NewTrainer builds the §4 trainer from options: every worker's gradient
// goes through encode → injector → decode, and the cost model times the
// round.
func NewTrainer(train, test *ml.Dataset, opts ...Option) (*Trainer, error) {
	t, fabric, err := newTrainer(train, test, opts)
	if err != nil {
		return nil, err
	}
	if fabric != nil {
		return nil, errors.New("ddp: WithFabric is read only by NewNetTrainer; NewTrainer injects its congestion")
	}
	cfg := t.cfg
	if cfg.Scheme != nil {
		err = refuseUnread("with a Scheme; an encoded round is trimmed, never dropped",
			unread{"DropRate", cfg.DropRate != 0})
	} else {
		err = refuseUnread("by the baseline (no Scheme); it averages the exact gradients",
			unread{"TrimRate", cfg.TrimRate != 0}, unread{"Injector", cfg.Injector != nil},
			unread{"ErrorFeedback", cfg.ErrorFeedback})
	}
	if err != nil {
		return nil, err
	}
	if t.exchange, err = injectedExchange(cfg, t.obs); err != nil {
		return nil, err
	}
	t.msgSpan = uint32(t.cfg.Workers)
	return t, nil
}

// unread is a Config field an exchange never reads, and whether it is set.
type unread struct {
	name string
	set  bool
}

// refuseUnread names the first set field, so a setting the chosen
// exchange would ignore fails instead of labelling a run that never used
// it; why completes "ddp: <field> is not read …".
func refuseUnread(why string, fields ...unread) error {
	for _, f := range fields {
		if f.set {
			return fmt.Errorf("ddp: %s is not read %s", f.name, why)
		}
	}
	return nil
}

// injectedExchange returns NewTrainer's exchange; every round costs the
// cost model's RoundTime. Without a scheme it is the reliable baseline,
// which averages the exact gradients. With one, worker w's gradient
// (error-feedback compensated under ErrorFeedback) takes message id
// msgBase+w through encode → injector → decode.
func injectedExchange(cfg Config, reg *obs.Registry) (exchangeFunc, error) {
	wall := cfg.Cost.RoundTime(cfg.Scheme, cfg.DropRate)
	comm := wall - cfg.Cost.Compute - cfg.Cost.EncodeTime(cfg.Scheme)
	if cfg.Scheme == nil {
		return func(_ uint64, _ uint32, grads [][]float32) (exchanged, error) {
			return exchanged{avg: mean(grads), wall: wall, comm: comm}, nil
		}, nil
	}
	codec := core.Config{Params: *cfg.Scheme, RowSize: cfg.RowSize}
	enc, err := core.NewEncoderWith(core.WithConfig(codec), core.WithRegistry(reg))
	if err != nil {
		return nil, err
	}
	inj := cfg.Injector
	if inj == nil {
		inj = core.NewTrimmer(cfg.TrimRate, cfg.Seed+0x7717)
	}
	var efs []sparse.ErrorFeedback
	if cfg.ErrorFeedback {
		efs = make([]sparse.ErrorFeedback, cfg.Workers)
	}
	return func(epoch uint64, msgBase uint32, grads [][]float32) (exchanged, error) {
		out := exchanged{wall: wall, comm: comm}
		decoded := make([][]float32, len(grads))
		for w, g := range grads {
			if efs != nil {
				g = efs[w].Compensate(g)
			}
			// Both codec halves run on the par crew; parallel output is
			// bit-identical to serial, so training trajectories do not
			// depend on GOMAXPROCS.
			msg, err := enc.EncodeParallel(epoch, msgBase+uint32(w), g, 0)
			if err != nil {
				return exchanged{}, err
			}
			dec, stats, err := core.Receive(msg, inj, len(g), core.WithConfig(codec))
			if err != nil {
				return exchanged{}, err
			}
			if efs != nil {
				efs[w].Update(g, dec)
			}
			decoded[w] = dec
			out.trimmed += stats.TrimmedCoords
			out.total += stats.TotalCoords
		}
		out.avg = mean(decoded)
		return out, nil
	}, nil
}

// mean returns the element-wise mean of vs, summed in rank order.
func mean(vs [][]float32) []float32 {
	avg := make([]float32, len(vs[0]))
	for _, v := range vs {
		vecmath.Add(avg, v)
	}
	vecmath.Scale(avg, 1/float32(len(vs)))
	return avg
}

// roundSpans records the per-round phase spans on r: compute, then
// encode, then comm, laid end to end from wallStart. All arguments are
// seconds on the trainer's modeled wall clock; spans are stamped in
// nanoseconds of that clock.
func roundSpans(r *obs.Registry, scheme string, wallStart, compute, encode, comm float64) {
	if r == nil {
		return
	}
	ns := func(sec float64) int64 { return int64(sec * 1e9) }
	t0 := ns(wallStart)
	t1 := ns(wallStart + compute)
	t2 := ns(wallStart + compute + encode)
	t3 := ns(wallStart + compute + encode + comm)
	attr := obs.KV{K: "scheme", V: scheme}
	r.RecordSpan("ddp.round.compute", t0, t1, attr)
	r.RecordSpan("ddp.round.encode", t1, t2, attr)
	r.RecordSpan("ddp.round.comm", t2, t3, attr)
}

// batch is one worker's input to one round.
type batch struct {
	x [][]float32
	y []int
}

// epochBatches cuts every worker's shard into the epoch's batches, in the
// order its seed shuffles them: batches[r][w] is worker w's round r. The
// epoch has as many rounds as the shortest shard has batches.
func epochBatches(shards []*ml.Dataset, cfg Config, epoch int) [][]batch {
	xs := make([][][][]float32, len(shards))
	ys := make([][][]int, len(shards))
	rounds := math.MaxInt
	for w, shard := range shards {
		xs[w], ys[w] = shard.Batches(cfg.Batch, cfg.Seed+uint64(epoch)*131+uint64(w))
		rounds = min(rounds, len(xs[w]))
	}
	batches := make([][]batch, rounds)
	for r := range batches {
		batches[r] = make([]batch, len(shards))
		for w := range shards {
			batches[r][w] = batch{xs[w][r], ys[w][r]}
		}
	}
	return batches
}

// newReplicas returns one replica of model per worker and their live
// gradient buffers, which the exchange reads in place.
func newReplicas(model *ml.Model, workers int) (replicas []*ml.Model, grads [][]float32) {
	replicas = make([]*ml.Model, workers)
	grads = make([][]float32, workers)
	for w := range replicas {
		replicas[w] = model.Replica()
		grads[w] = replicas[w].Grads()
	}
	return replicas, grads
}

// computeGrads runs one round's compute the way DDP does, every worker at
// once: worker w's forward and backward pass over round[w], against the
// parameters the replicas share, is one task of a single fan-out over the
// par crew (workers executors; 0 means the crew's size). Each pass leaves its
// gradient in its replica and its loss in losses[w], so what a run reports
// does not depend on which executor ran which worker — provided the caller
// adds the losses up in rank order.
func computeGrads(replicas []*ml.Model, round []batch, losses []float64, workers int) {
	par.Default.ForEach(len(replicas), workers, func(w int) {
		m := replicas[w]
		m.ZeroGrad()
		logits := m.Forward(round[w].x, true)
		loss, dLogits := ml.SoftmaxCrossEntropy(logits, round[w].y)
		losses[w] = loss
		m.Backward(dLogits)
	})
}

// Model exposes the trained model (for FSDP and inspection).
func (t *Trainer) Model() *ml.Model { return t.model }

// Run executes the configured training and returns its result. Each round
// advances the modeled wall clock by what the exchange reports.
func (t *Trainer) Run() (*Result, error) {
	cfg := t.cfg
	res := &Result{Config: cfg}
	if cfg.Scheme == nil && cfg.DropRate > dropTimeoutRate {
		// §4.4: NCCL starts reporting timeout errors; the run never
		// finishes.
		res.TimedOut, res.Diverged = true, true
		return res, nil
	}

	shards := t.train.Shard(cfg.Workers)
	opt := ml.NewSGD(cfg.LR, cfg.Momentum)
	sched := ml.NewStepLR(opt, cfg.StepSize, cfg.Gamma)
	encodeTime := cfg.Cost.EncodeTime(cfg.Scheme)
	schemeName := cfg.SchemeName()

	wall := 0.0
	msgBase := uint32(1)
	replicas, grads := newReplicas(t.model, cfg.Workers)
	losses := make([]float64, cfg.Workers)

	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		batches := epochBatches(shards, cfg, epoch)
		var epochLoss float64
		trimmed, total := 0, 0
		for _, round := range batches {
			computeGrads(replicas, round, losses, 0)
			for _, loss := range losses {
				epochLoss += loss
			}
			x, err := t.exchange(uint64(epoch), msgBase, grads)
			if err != nil {
				return nil, err
			}
			msgBase += t.msgSpan
			opt.Step(t.model.Params(), x.avg)
			roundSpans(t.obs, schemeName, wall, cfg.Cost.Compute, encodeTime, x.comm)
			wall += x.wall
			trimmed += x.trimmed
			total += x.total

			if !allFinite(t.model.Params()) {
				res.Diverged = true
				res.WallTotal = wall
				return res, nil
			}
		}
		sched.EpochEnd()
		if epoch%cfg.EvalEvery == 0 || epoch == cfg.Epochs {
			top1, top5 := ml.Evaluate(t.model, t.test, 256)
			p := Point{
				Epoch: epoch,
				Wall:  wall,
				Loss:  epochLoss / float64(len(batches)*cfg.Workers),
				Top1:  top1,
				Top5:  top5,
			}
			if total > 0 {
				p.TrimFrac = float64(trimmed) / float64(total)
			}
			res.Points = append(res.Points, p)
		}
	}
	if n := len(res.Points); n > 0 {
		res.FinalTop1 = res.Points[n-1].Top1
		res.FinalTop5 = res.Points[n-1].Top5
	}
	res.WallTotal = wall
	return res, nil
}

func allFinite(v []float32) bool {
	for _, x := range v {
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// String renders a result line for logs.
func (r *Result) String() string {
	status := "ok"
	if r.TimedOut {
		status = "timeout"
	} else if r.Diverged {
		status = "diverged"
	}
	return fmt.Sprintf("%s trim=%.3f drop=%.3f top1=%.3f top5=%.3f wall=%.1fs [%s]",
		r.Config.SchemeName(), r.Config.TrimRate, r.Config.DropRate,
		r.FinalTop1, r.FinalTop5, r.WallTotal, status)
}
