package ddp

import (
	"errors"
	"fmt"

	"trimgrad/internal/collective"
	"trimgrad/internal/core"
	"trimgrad/internal/ml"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/transport"
	"trimgrad/internal/vecmath"
)

// NetTrainer is the closed-loop variant of Trainer: instead of injecting
// trimming at a pre-set probability (the paper's §4 methodology), every
// gradient exchange runs over a live netsim fabric whose shallow-buffer
// switches trim (or drop) under the incast the exchange itself creates.
// This is the "full-scale simulation" §5.1 calls for: the trim fraction
// is an *outcome* of queue dynamics, not a parameter, and communication
// time is measured from the simulator rather than modelled.
type NetTrainer struct {
	cfg    Config
	fabric FabricConfig
	model  *ml.Model
	train  *ml.Dataset
	test   *ml.Dataset

	sim     *netsim.Sim
	workers []*collective.Worker
	cross   []*netsim.CrossTraffic
	obs     *obs.Registry

	lastTrimmed, lastTotal int
}

// FabricConfig describes the simulated network under the training job.
type FabricConfig struct {
	// Topology selects the fabric: "star" (default), "fattree", or
	// "leafspine". Multi-tier fabrics route worker traffic over ECMP
	// paths, so gradient exchanges contend inside the fabric rather than
	// at a single switch.
	Topology string
	// FatTreeK is the fat-tree arity; zero picks the smallest even k
	// whose k³/4 hosts fit every worker (plus the cross-traffic host).
	FatTreeK int
	// Oversub is the leaf–spine oversubscription ratio (zero: 1, i.e.
	// non-blocking).
	Oversub float64
	// Link is every host↔switch link.
	Link netsim.LinkConfig
	// Queue configures the switch (shallow buffers + TrimOverflow for the
	// paper's design; DropTail for the baseline). Setting
	// Queue.AggregateTrimmable turns the switch into an in-network
	// aggregator — most effective with the AlgParamServer incast.
	Queue netsim.QueueConfig
	// Mode selects the transport (Reliable baseline vs Trimmable).
	Mode collective.Mode
	// Algorithm selects the all-reduce schedule (zero value: AlgDirect).
	Algorithm collective.Algorithm
	// CrossRate, if nonzero, adds Poisson cross traffic at this many
	// packets/s from a dedicated host toward each worker.
	CrossRate float64
	// RoundTimeout bounds one exchange; zero means 10 s.
	RoundTimeout netsim.Time
}

func (f FabricConfig) withDefaults() FabricConfig {
	if f.Topology == "" {
		f.Topology = "star"
	}
	if f.Link.Bandwidth == 0 {
		f.Link = netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond}
	}
	if f.Queue.CapacityBytes == 0 {
		f.Queue = netsim.QueueConfig{
			CapacityBytes:     64 << 10,
			HighCapacityBytes: 1 << 20,
			Mode:              netsim.TrimOverflow,
		}
	}
	if f.RoundTimeout == 0 {
		f.RoundTimeout = 10 * netsim.Second
	}
	return f
}

// fabricSpec sizes the configured topology for at least nHosts hosts.
// Workers occupy hosts 0..Workers-1 regardless of topology (the builders
// order hosts by rank), so the collective's rank→NodeID mapping needs no
// adjustment; Clos fabrics may round the host count up to the fabric's
// natural size.
func fabricSpec(f FabricConfig, nHosts int) (netsim.FabricSpec, error) {
	spec := netsim.FabricSpec{Kind: f.Topology, N: nHosts, Link: f.Link, Queue: f.Queue}
	switch f.Topology {
	case "star":
	case "fattree":
		spec.K = f.FatTreeK
		if spec.K == 0 {
			for spec.K = 2; netsim.FatTreeHosts(spec.K) < nHosts; spec.K += 2 {
			}
		}
		if netsim.FatTreeHosts(spec.K) < nHosts {
			return spec, fmt.Errorf("ddp: fat tree k=%d holds %d hosts, need %d",
				spec.K, netsim.FatTreeHosts(spec.K), nHosts)
		}
	case "leafspine":
		spec.Spines, spec.HostsPerLeaf, spec.Oversub = 2, 4, f.Oversub
		spec.Leaves = max(2, (nHosts+spec.HostsPerLeaf-1)/spec.HostsPerLeaf)
	default:
		return spec, fmt.Errorf("ddp: unknown fabric topology %q (want star|fattree|leafspine)", f.Topology)
	}
	return spec, nil
}

// NewNetTrainer builds a closed-loop trainer from options: cfg.Workers
// hosts around one switch, plus one cross-traffic host when CrossRate >
// 0. A registry passed via WithRegistry is bound to the fabric, so ports,
// transports, the collective layer, and the codec all report into it.
func NewNetTrainer(train, test *ml.Dataset, opts ...Option) (*NetTrainer, error) {
	var o trainerOpts
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.cfg.validate(); err != nil {
		return nil, err
	}
	cfg := o.cfg.withDefaults()
	fabric := o.fabric.withDefaults()
	if err := checkShards(cfg, train); err != nil {
		return nil, err
	}
	if cfg.Scheme == nil {
		return nil, errors.New("ddp: networked training needs an encoding scheme (wire format)")
	}
	sizes := append([]int{train.Dim}, o.hidden...)
	sizes = append(sizes, train.Classes)

	nt := &NetTrainer{
		cfg:    cfg,
		fabric: fabric,
		model:  ml.NewMLP(cfg.Seed, sizes...),
		train:  train,
		test:   test,
		sim:    netsim.NewSim(),
		obs:    o.reg,
	}
	nHosts := cfg.Workers
	if fabric.CrossRate > 0 {
		nHosts++
	}
	spec, err := fabricSpec(fabric, nHosts)
	if err != nil {
		return nil, err
	}
	topo, err := spec.Build(nt.sim, netsim.WithRegistry(o.reg))
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		stack, err := transport.New(topo.Hosts[i])
		if err != nil {
			return nil, err
		}
		w, err := collective.New(i, stack, collective.WithConfig(core.Config{
			Params:  *cfg.Scheme,
			RowSize: cfg.RowSize,
		}), collective.WithMode(fabric.Mode))
		if err != nil {
			return nil, err
		}
		// A round that cannot finish inside RoundTimeout surfaces as an
		// explicit per-rank error instead of an empty result: a crashed or
		// partitioned peer fails the round, never hangs it.
		w.Deadline = fabric.RoundTimeout
		nt.workers = append(nt.workers, w)
	}
	if fabric.CrossRate > 0 {
		src := topo.Hosts[len(topo.Hosts)-1]
		for i := 0; i < cfg.Workers; i++ {
			ct := netsim.NewCrossTraffic(src, netsim.NodeID(i), 1500,
				fabric.CrossRate, cfg.Seed+uint64(i)*7)
			ct.Start()
			nt.cross = append(nt.cross, ct)
		}
	}
	return nt, nil
}

// Model exposes the trained model.
func (t *NetTrainer) Model() *ml.Model { return t.model }

// Run executes the training. Wall-clock time combines the cost model's
// compute+encode terms with the *measured* simulated communication time
// of each round's all-reduce.
func (t *NetTrainer) Run() (*Result, error) {
	cfg := t.cfg
	res := &Result{Config: cfg}
	shards := t.train.Shard(cfg.Workers)
	opt := ml.NewSGD(cfg.LR, cfg.Momentum)
	sched := ml.NewStepLR(opt, cfg.StepSize, cfg.Gamma)
	encodeTime := cfg.Cost.EncodeTime(cfg.Scheme)
	computeTime := cfg.Cost.Compute + encodeTime
	schemeName := cfg.SchemeName()

	wall := 0.0
	msgBase := uint32(1)
	dim := t.model.NumParams()
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
			avg, commSecs, err := t.exchangeRound(uint64(epoch), msgBase, grads, dim)
			if err != nil {
				return nil, err
			}
			msgBase += collective.MsgSpan(t.fabric.Algorithm, cfg.Workers)
			opt.Step(t.model.Params(), avg)
			roundSpans(t.obs, schemeName, wall,
				cfg.Cost.Compute, encodeTime, commSecs)
			wall += computeTime + commSecs

			tr, to := t.statsDelta()
			trimmed += tr
			total += to

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
				Epoch: epoch, Wall: wall,
				Loss: epochLoss / float64(len(batches)*cfg.Workers),
				Top1: top1, Top5: top5,
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

// exchangeRound runs one all-reduce of the configured algorithm on the
// live fabric and returns the replica-consistent average and the measured
// communication seconds.
func (t *NetTrainer) exchangeRound(epoch uint64, msgBase uint32, grads [][]float32, dim int) ([]float32, float64, error) {
	n := t.cfg.Workers
	results := make([][]float32, n)
	var lastDone netsim.Time
	var opErr error
	start := t.sim.Now()
	err := collective.AllReduce(t.fabric.Algorithm, epoch, msgBase, t.workers, grads,
		func(rank int, avg []float32, at netsim.Time) {
			results[rank] = avg
			if at > lastDone {
				lastDone = at
			}
		},
		func(rank int, err error) {
			if opErr == nil {
				opErr = fmt.Errorf("ddp: rank %d: %w", rank, err)
			}
		})
	if err != nil {
		return nil, 0, err
	}
	t.sim.RunUntil(start + t.fabric.RoundTimeout)
	if opErr != nil {
		return nil, 0, opErr
	}
	for rank, got := range results {
		if got == nil {
			return nil, 0, fmt.Errorf("ddp: rank %d round timed out (baseline congestion collapse?)", rank)
		}
	}
	// Replica consistency: average the per-worker averages so every
	// replica applies the same update (each avg already divides by n).
	avg := make([]float32, dim)
	for _, g := range results {
		vecmath.Add(avg, g)
	}
	vecmath.Scale(avg, 1/float32(n))
	return avg, (lastDone - start).Seconds(), nil
}

// statsTotals / statsDelta track coordinate-level trim accounting across
// rounds from the workers' aggregate decode stats.
func (t *NetTrainer) statsTotals() (trimmed, total int) {
	for _, w := range t.workers {
		trimmed += w.AggStats.TrimmedCoords
		total += w.AggStats.TotalCoords
	}
	return
}

// statsDelta returns the totals accumulated since the previous call.
func (t *NetTrainer) statsDelta() (trimmed, total int) {
	tr, to := t.statsTotals()
	d1, d2 := tr-t.lastTrimmed, to-t.lastTotal
	t.lastTrimmed, t.lastTotal = tr, to
	return d1, d2
}
