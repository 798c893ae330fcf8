package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
	"trimgrad/internal/xrand"
)

// fabricKind selects one of the three fabric workloads. All three run
// cmd/netsim's code path on the same fat tree with the same pre-encoded
// messages; they differ in traffic pattern, queue mode and shard count.
type fabricKind int

const (
	incastTrim fabricKind = iota // N-1 → 1, TrimOverflow + SendTrimmable, 1 shard
	incastDrop                   // N-1 → 1, DropTail + SendReliable, 1 shard
	permute                      // N disjoint flows, TrimOverflow, 2 shards
)

// fabricRowSize is the codec row size of fabric messages (cmd/netsim's).
const fabricRowSize = 1 << 13

// simBound caps one iteration's simulated time; a flow still open then
// counts as failed.
const simBound = 60 * netsim.Second

type fabricWorkload struct {
	kind   fabricKind
	cfg    config
	seed   uint64
	shards int
	// msgs are encoded once in setup and reused by every iteration: a
	// sharded simulator copies unstamped payloads at injection, so trims
	// never reach these buffers and the codec stays out of the timed region.
	msgs []*core.Message

	counters simCounters
}

func newFabricWorkload(kind fabricKind, cfg config, seed uint64) *fabricWorkload {
	w := &fabricWorkload{kind: kind, cfg: cfg, seed: seed, shards: 1}
	if kind == permute {
		w.shards = 2
	}
	return w
}

func (w *fabricWorkload) hosts() int { return netsim.FatTreeHosts(w.cfg.fabricK) }

// setup generates one seeded gradient per host and encodes it the way
// cmd/netsim does (RHT, 2^13 rows, serial Encode, flow = sender index).
func (w *fabricWorkload) setup() error {
	w.msgs = w.msgs[:0]
	for i := 0; i < w.hosts(); i++ {
		enc, err := core.NewEncoderWith(core.WithConfig(core.Config{
			Params: quant.Params{Scheme: quant.RHT}, RowSize: fabricRowSize, Flow: uint32(i),
		}))
		if err != nil {
			return err
		}
		grad := normalGradient(w.cfg.msgDim, xrand.Seed(w.seed, 0x67726164, uint64(i)))
		msg, err := enc.Encode(w.seed, uint32(i+1), grad)
		if err != nil {
			return err
		}
		w.msgs = append(w.msgs, msg)
	}
	return nil
}

func (w *fabricWorkload) queue() netsim.QueueConfig {
	q := netsim.QueueConfig{CapacityBytes: 64 << 10, HighCapacityBytes: 512 << 10, Mode: netsim.TrimOverflow}
	if w.kind == incastDrop {
		q.Mode = netsim.DropTail
	}
	return q
}

func (w *fabricWorkload) iterate(i int, tr *tracer) iterOut { return w.run(i, tr, w.shards) }

// run is one iteration: build fabric and stacks, inject every flow, run in
// 10 ms RunUntil slices until all flows complete, close.
func (w *fabricWorkload) run(i int, tr *tracer, shards int) iterOut {
	seedI := xrand.Seed(w.seed, uint64(i))
	var out iterOut
	start := time.Now()
	tr.setIter(i)
	root := tr.begin("driver.iteration")

	var reg *obs.Registry
	if tr != nil {
		reg = obs.New() // the registry is attached in the traced pass only
	}
	build := tr.begin("netsim.build")
	sim := netsim.NewSim()
	topo, err := netsim.NewFatTree(sim, netsim.FatTreeConfig{
		K:        w.cfg.fabricK,
		HostLink: netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond},
		Queue:    w.queue(),
		ECMPSeed: seedI,
	}, netsim.WithRegistry(reg))
	if err != nil {
		panic(err) // the fixed configuration is valid; only API drift lands here
	}
	eng, err := netsim.ShardTopology(topo, shards)
	if err != nil {
		panic(err)
	}
	tr.end(build)

	n := len(topo.Hosts)
	var flows []netsim.Flow
	if w.kind == permute {
		flows = netsim.Permutation(n, seedI).GradientFlows()
	} else {
		flows = netsim.Incast(n, n-1).GradientFlows()
	}

	attach := tr.begin("transport.attach")
	stacks := make([]*transport.Stack, n)
	var accs []hostAcc
	if tr != nil {
		accs = make([]hostAcc, n)
	}
	stackFor := func(h int) *transport.Stack {
		if stacks[h] == nil {
			s, err := transport.New(topo.Hosts[h],
				transport.WithReceiver(transport.ReceiverFunc(func(netsim.NodeID, []byte) {})))
			if err != nil {
				panic(err)
			}
			if tr != nil {
				accs[h].handicapRx = tr.handicap["transport.rx"]
				wrapStack(topo.Hosts[h], s, &accs[h])
			}
			stacks[h] = s
		}
		return stacks[h]
	}
	for _, f := range flows {
		stackFor(f.Src)
		stackFor(f.Dst)
	}
	tr.end(attach)

	// Completions fire on shard goroutines: each flow writes its own slot
	// and the counters are atomic.
	fcts := make([]int64, len(flows))
	errs := make([]error, len(flows))
	var completed, failed atomic.Int64
	inject := tr.begin("transport.inject")
	for fi, f := range flows {
		msg := w.msgs[fi]
		dst := topo.Hosts[f.Dst].ID()
		onDone := func(at netsim.Time) { fcts[fi] = int64(at); completed.Add(1) }
		onFail := func(err error) { errs[fi] = err; failed.Add(1) }
		if w.kind == incastDrop {
			payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
			stacks[f.Src].SendReliable(dst, msg.ID, payloads, onDone, onFail)
		} else {
			stacks[f.Src].SendTrimmable(dst, msg.ID, msg.Meta, msg.Data, onDone, onFail)
		}
	}
	tr.end(inject)

	var m0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	run := tr.begin("netsim.run")
	t0 := time.Now()
	const slice = 10 * netsim.Millisecond
	for now := netsim.Time(0); completed.Load()+failed.Load() < int64(len(flows)) && now < simBound; now += slice {
		eng.RunUntil(now + slice)
	}
	out.runNs = int64(time.Since(t0))
	tr.end(run)
	out.events = eng.Processed()

	var untimed time.Duration
	if tr != nil {
		foldAccs(tr, run, accs, shards, "transport.rx", "driver.sink")
		untimed = w.collect(tr, eng, topo, out.events, &m0)
	}
	cl := tr.begin("netsim.close")
	eng.Close()
	tr.end(cl)
	tr.end(root)
	out.hostNs = int64(time.Since(start) - untimed)

	out.attempted = len(flows)
	var d digestBuilder
	d.u64(uint64(completed.Load()))
	for fi := range flows {
		switch {
		case errs[fi] != nil:
			out.fail(fmt.Sprintf("iteration %d flow %d: %v", i, fi, errs[fi]))
		case fcts[fi] == 0:
			out.fail(fmt.Sprintf("iteration %d flow %d: not complete after %v simulated", i, fi, simBound))
		default:
			out.fcts = append(out.fcts, fcts[fi])
			if fcts[fi] > out.simNs {
				out.simNs = fcts[fi]
			}
		}
		d.u64(uint64(fcts[fi]))
	}
	out.digest = d.sum()
	out.gradBytes = completed.Load() * int64(w.cfg.msgDim) * 4
	return out
}

// collect is the traced pass's bookkeeping between run and close: drain
// the engine to idle, snapshot the registry, and fold the counters. It
// runs inside the iteration span (as netsim.drain and obs.snapshot, the
// harness's own cost) and returns its duration so the iteration's host
// time can exclude it.
func (w *fabricWorkload) collect(tr *tracer, eng *netsim.Engine, topo *netsim.Topology, events uint64, m0 *runtime.MemStats) time.Duration {
	t0 := time.Now()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	c := &w.counters
	c.events += events
	c.mallocs += m1.Mallocs - m0.Mallocs

	drain := tr.begin("netsim.drain")
	eng.Run()
	tr.end(drain)

	sn := tr.begin("obs.snapshot")
	t1 := time.Now()
	snap := eng.Snapshot()
	c.snapshotNs += int64(time.Since(t1))
	tr.end(sn)

	c.fold(snap, tierOf(topo))
	return time.Since(t0)
}

// verify re-runs iteration i: the digest of simulated outcomes must repeat
// for the same seed, and (the bit-identity contract) must not depend on
// the shard count — checked for permute_k8_s2, the sharded workload,
// against a 1-shard run.
func (w *fabricWorkload) verify(i int, ref iterOut) []string {
	var fails []string
	if again := w.run(i, nil, w.shards); again.digest != ref.digest {
		fails = append(fails, fmt.Sprintf("iteration %d: digest %s on re-run, was %s", i, shortDigest(again.digest), shortDigest(ref.digest)))
	}
	if w.kind == permute {
		if one := w.run(i, nil, 1); one.digest != ref.digest {
			fails = append(fails, fmt.Sprintf("iteration %d: 1-shard digest %s differs from %d-shard %s", i, shortDigest(one.digest), w.shards, shortDigest(ref.digest)))
		}
	}
	return fails
}

// otherShards is the shard count of the comparison arm: 1 for the sharded
// workload, 2 for the serial ones.
func (w *fabricWorkload) otherShards() int {
	if w.shards == 1 {
		return 2
	}
	return 1
}

// extraArm runs the same iterations at the other shard count, untraced:
// netsim.shard_speedup is 1-shard run time over 2-shard run time, and the
// digests must match across shard counts on every fabric workload.
func (w *fabricWorkload) extraArm(n int, ref []iterOut) (map[string]float64, float64, []string) {
	var fails []string
	var refRun, otherRun int64
	for i := 0; i < n; i++ {
		o := w.run(i, nil, w.otherShards())
		if o.digest != ref[i].digest {
			fails = append(fails, fmt.Sprintf("iteration %d: %d-shard digest %s differs from %d-shard %s",
				i, w.otherShards(), shortDigest(o.digest), w.shards, shortDigest(ref[i].digest)))
		}
		refRun += ref[i].runNs
		otherRun += o.runNs
	}
	one, two := float64(refRun), float64(otherRun)
	if w.shards == 2 {
		one, two = two, one
	}
	return map[string]float64{"netsim.shard_speedup": one / two}, 0, fails
}

// layers turns the traced iterations' spans and counters into the netsim,
// transport and obs layer metrics.
func (w *fabricWorkload) layers(spans []span, n int) (map[string]float64, []string) {
	return w.counters.metrics(spans, n), w.counters.tierFailures
}

func (w *fabricWorkload) codecSample() codecSample {
	return codecSample{
		grad:    normalGradient(w.cfg.msgDim, xrand.Seed(w.seed, 0x67726164, 0)),
		rowSize: fabricRowSize,
		schemes: []quant.Scheme{quant.RHT},
	}
}
