package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"trimgrad/internal/collective"
	"trimgrad/internal/core"
	"trimgrad/internal/ddp"
	"trimgrad/internal/ml"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

const (
	trainWorkers = 8
	trainRowSize = 1 << 11
	trainBatch   = 64
	trainClasses = 30
	trainDim     = 32
)

var trainHidden = []int{256, 128}

// trainWorkload is train_k4_ps: the whole pipeline in the proportions a
// user meets. Untraced, one iteration is ddp.NewNetTrainer(...).Run().
// NetTrainer's internals cannot be timed from outside, so the traced pass
// runs the same round loop unrolled here from public calls; its
// final-parameter digest must equal Run's for the same seed.
type trainWorkload struct {
	cfg         config
	seed        uint64
	train, test *ml.Dataset

	counters simCounters
	msgs     int64 // OnMessageComplete calls over the traced iterations
}

func (w *trainWorkload) setup() error {
	w.train, w.test = ml.Synthetic(ml.SyntheticConfig{
		Classes: trainClasses, Dim: trainDim,
		Train: w.cfg.trainSamples, Test: w.cfg.testSamples,
		Noise: 2.4, Spread: 2.0, Seed: w.seed,
	})
	return nil
}

// ddpConfig spells out every field NetTrainer would otherwise default, so
// the unrolled loop reads the same values Run does.
func (w *trainWorkload) ddpConfig(seedI uint64) ddp.Config {
	return ddp.Config{
		Workers: trainWorkers,
		Scheme:  &quant.Params{Scheme: quant.RHT},
		RowSize: trainRowSize,
		Batch:   trainBatch,
		Epochs:  w.cfg.trainEpochs,
		LR:      0.05, Momentum: 0.9, StepSize: 20, Gamma: 0.5,
		Seed:      seedI,
		Cost:      ddp.DefaultCostModel(),
		EvalEvery: 1,
	}
}

func (w *trainWorkload) fabric() ddp.FabricConfig {
	return ddp.FabricConfig{
		Topology: "fattree",
		FatTreeK: 4,
		Link:     netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond},
		Queue: netsim.QueueConfig{
			CapacityBytes: 16 << 10, HighCapacityBytes: 1 << 20, Mode: netsim.TrimOverflow,
		},
		Mode:         collective.Trimmable,
		Algorithm:    collective.AlgParamServer,
		RoundTimeout: 10 * netsim.Second,
	}
}

// rounds is the number of all-reduce rounds one Run performs.
func (w *trainWorkload) rounds() int {
	perWorker := w.cfg.trainSamples / trainWorkers
	return w.cfg.trainEpochs * ((perWorker + trainBatch - 1) / trainBatch)
}

func (w *trainWorkload) iterate(i int, tr *tracer) iterOut {
	if tr != nil {
		return w.unrolled(i, tr)
	}
	seedI := xrand.Seed(w.seed, uint64(i))
	out := iterOut{attempted: 1}
	start := time.Now()
	nt, err := ddp.NewNetTrainer(w.train, w.test,
		ddp.WithConfig(w.ddpConfig(seedI)), ddp.WithFabric(w.fabric()), ddp.WithHidden(trainHidden...))
	if err != nil {
		out.fail(fmt.Sprintf("iteration %d: NewNetTrainer: %v", i, err))
		return out
	}
	res, err := nt.Run()
	out.hostNs = int64(time.Since(start))
	if err != nil {
		out.fail(fmt.Sprintf("iteration %d: Run: %v", i, err))
		return out
	}
	w.finish(i, &out, nt.Model(), res.WallTotal, res.FinalTop1, res.Diverged)
	return out
}

// finish folds a completed run's outcome into out, identically for Run
// and for the unrolled loop.
func (w *trainWorkload) finish(i int, out *iterOut, model *ml.Model, wall, top1 float64, diverged bool) {
	if diverged {
		out.fail(fmt.Sprintf("iteration %d: training diverged", i))
	}
	out.simWallS, out.top1 = wall, top1
	out.gradBytes = int64(model.NumParams()) * 4 * trainWorkers * int64(w.rounds())
	var d digestBuilder
	d.u64(math.Float64bits(wall))
	d.u64(math.Float64bits(top1))
	d.f32s(model.Params())
	out.digest = d.sum()
}

// unrolled is NetTrainer.Run's round loop rebuilt from public calls —
// Model.Forward/Backward, collective.AllReduce, Sim.RunUntil, SGD.Step —
// with a span around each and wrappers over every worker's Host.Handler,
// Stack.Receiver and OnMessageComplete. A nil tracer runs the same loop
// untraced (the baseline ddp.orchestration_ratio and the tracing overhead
// are taken against).
func (w *trainWorkload) unrolled(i int, tr *tracer) iterOut {
	seedI := xrand.Seed(w.seed, uint64(i))
	cfg, fabric := w.ddpConfig(seedI), w.fabric()
	out := iterOut{attempted: 1}
	start := time.Now()
	tr.setIter(i)
	root := tr.begin("driver.iteration")
	bail := func(stage string, err error) iterOut {
		tr.unwind(root)
		out.fail(fmt.Sprintf("iteration %d: unrolled %s: %v", i, stage, err))
		return out
	}

	sizes := append(append([]int{w.train.Dim}, trainHidden...), w.train.Classes)
	model := ml.NewMLP(cfg.Seed, sizes...)

	var reg *obs.Registry
	if tr != nil {
		reg = obs.New()
	}
	sp := tr.begin("netsim.build")
	sim := netsim.NewSim()
	topo, err := netsim.NewFatTree(sim, netsim.FatTreeConfig{
		K: fabric.FatTreeK, HostLink: fabric.Link, Queue: fabric.Queue,
	}, netsim.WithRegistry(reg))
	if err != nil {
		return bail("NewFatTree", err)
	}
	tr.end(sp)
	sp = tr.begin("transport.attach")
	workers := make([]*collective.Worker, cfg.Workers)
	accs := make([]hostAcc, cfg.Workers)
	for r := range workers {
		stack, err := transport.New(topo.Hosts[r])
		if err == nil {
			workers[r], err = collective.New(r, stack, collective.WithConfig(core.Config{
				Params: *cfg.Scheme, RowSize: cfg.RowSize,
			}), collective.WithMode(fabric.Mode))
		}
		if err != nil {
			return bail("worker", err)
		}
		workers[r].Deadline = fabric.RoundTimeout
		if tr != nil {
			accs[r].handicapRx, accs[r].handicapUp = tr.handicap["transport.rx"], tr.handicap["collective.rx"]
			wrapStack(topo.Hosts[r], stack, &accs[r])
		}
	}
	tr.end(sp)

	shards := w.train.Shard(cfg.Workers)
	opt := ml.NewSGD(cfg.LR, cfg.Momentum)
	sched := ml.NewStepLR(opt, cfg.StepSize, cfg.Gamma)
	computeTime := cfg.Cost.Compute + cfg.Cost.EncodeTime(cfg.Scheme)
	wall, top1 := 0.0, 0.0
	msgBase := uint32(1)
	dim := model.NumParams()
	grads := make([][]float32, cfg.Workers)
	diverged := false
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}

train:
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		xs := make([][][][]float32, cfg.Workers)
		ys := make([][][]int, cfg.Workers)
		rounds := math.MaxInt
		for r := range xs {
			xs[r], ys[r] = shards[r].Batches(cfg.Batch, cfg.Seed+uint64(epoch)*131+uint64(r))
			rounds = min(rounds, len(xs[r]))
		}
		for round := 0; round < rounds; round++ {
			sp = tr.begin("ml.fwdbwd")
			for r := 0; r < cfg.Workers; r++ {
				model.ZeroGrad()
				logits := model.Forward(xs[r][round], true)
				_, dLogits := ml.SoftmaxCrossEntropy(logits, ys[r][round])
				model.Backward(dLogits)
				grads[r] = append(grads[r][:0], model.Grads()...)
			}
			tr.end(sp)

			results := make([][]float32, cfg.Workers)
			var lastDone netsim.Time
			var opErr error
			t0 := sim.Now()
			sp = tr.begin("collective.launch")
			err := collective.AllReduce(fabric.Algorithm, uint64(epoch), msgBase, workers, grads,
				func(rank int, avg []float32, at netsim.Time) {
					results[rank] = avg
					lastDone = max(lastDone, at)
				},
				func(rank int, err error) {
					if opErr == nil {
						opErr = fmt.Errorf("rank %d: %w", rank, err)
					}
				})
			if err != nil {
				return bail("AllReduce", err)
			}
			tr.end(sp)
			sp = tr.begin("netsim.run")
			hostT0 := time.Now()
			sim.RunUntil(t0 + fabric.RoundTimeout)
			out.runNs += int64(time.Since(hostT0))
			tr.end(sp)
			if tr != nil {
				foldAccs(tr, sp, accs, 1, "transport.rx", "collective.rx")
				for r := range accs {
					w.msgs += accs[r].msgs
					accs[r].rxNs, accs[r].rxN, accs[r].upNs, accs[r].upN, accs[r].msgs = 0, 0, 0, 0, 0 // shares and debt carry over
				}
			}
			if opErr != nil {
				return bail("round", opErr)
			}
			sp = tr.begin("ddp.average")
			avg := make([]float32, dim)
			for rank, g := range results {
				if g == nil {
					return bail("round", fmt.Errorf("rank %d timed out", rank))
				}
				vecmath.Add(avg, g)
			}
			vecmath.Scale(avg, 1/float32(cfg.Workers))
			tr.end(sp)
			out.simNs += int64(lastDone - t0)
			msgBase += collective.MsgSpan(fabric.Algorithm, cfg.Workers)

			sp = tr.begin("ml.step")
			opt.Step(model.Params(), avg)
			tr.end(sp)
			wall += computeTime + (lastDone - t0).Seconds()

			for _, x := range model.Params() {
				if f := float64(x); math.IsNaN(f) || math.IsInf(f, 0) {
					diverged = true
					break train
				}
			}
		}
		sched.EpochEnd()
		sp = tr.begin("ml.eval")
		top1, _ = ml.Evaluate(model, w.test, 256)
		tr.end(sp)
	}
	out.events = sim.Processed

	var untimed time.Duration
	if tr != nil {
		t1 := time.Now()
		runtime.ReadMemStats(&m1)
		c := &w.counters
		c.events += out.events
		c.mallocs += m1.Mallocs - m0.Mallocs
		sp = tr.begin("obs.snapshot")
		t2 := time.Now()
		snap := reg.Snapshot()
		c.snapshotNs += int64(time.Since(t2))
		tr.end(sp)
		c.fold(snap, tierOf(topo))
		untimed = time.Since(t1)
	}
	tr.end(root)
	out.hostNs = int64(time.Since(start) - untimed)
	w.finish(i, &out, model, wall, top1, diverged)
	return out
}

// verify re-runs Run on iteration i: same seed, same final parameters.
func (w *trainWorkload) verify(i int, ref iterOut) []string {
	if again := w.iterate(i, nil); again.digest != ref.digest {
		return []string{fmt.Sprintf("iteration %d: digest %s on re-run, was %s", i, shortDigest(again.digest), shortDigest(ref.digest))}
	}
	return nil
}

// extraArm runs the unrolled loop untraced on the same iterations. Its
// digests must equal Run's (ref); Run's host time over its own is
// ddp.orchestration_ratio, which drops below 1 once ddp learns to overlap
// workers; and it, not Run, is the base of this workload's tracing overhead.
func (w *trainWorkload) extraArm(n int, ref []iterOut) (map[string]float64, float64, []string) {
	var fails []string
	var runNs, loopNs int64
	var loopMs []float64
	for i := 0; i < n; i++ {
		o := w.unrolled(i, nil)
		fails = append(fails, o.failures...)
		if o.digest != ref[i].digest {
			fails = append(fails, fmt.Sprintf("iteration %d: unrolled-loop digest %s differs from NetTrainer.Run's %s", i, shortDigest(o.digest), shortDigest(ref[i].digest)))
		}
		runNs += ref[i].hostNs
		loopNs += o.hostNs
		loopMs = append(loopMs, float64(o.hostNs)/1e6)
	}
	return map[string]float64{"ddp.orchestration_ratio": float64(runNs) / float64(loopNs)}, median(loopMs), fails
}

func (w *trainWorkload) layers(spans []span, n int) (map[string]float64, []string) {
	m := w.counters.metrics(spans, n)
	rows := shareTable(spans)
	m["collective.launch_s"] = spanSeconds(spans, n, "collective.launch")
	m["collective.rx_self_s"] = selfSeconds(rows, "collective.rx")
	m["collective.msgs"] = float64(w.msgs) / float64(n)
	m["ml.fwdbwd_s"] = spanSeconds(spans, n, "ml.fwdbwd")
	m["ml.step_s"] = spanSeconds(spans, n, "ml.step")
	m["ml.eval_s"] = spanSeconds(spans, n, "ml.eval")
	return m, w.counters.tierFailures
}

func (w *trainWorkload) codecSample() codecSample {
	sizes := append(append([]int{trainDim}, trainHidden...), trainClasses)
	return codecSample{
		grad:    normalGradient(ml.NewMLP(w.seed, sizes...).NumParams(), xrand.Seed(w.seed, 0x67726164)),
		rowSize: trainRowSize,
		schemes: []quant.Scheme{quant.RHT},
	}
}
