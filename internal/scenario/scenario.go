// Package scenario is the one rig behind every "encoded gradients through a
// congested fabric" run. A Scenario states the run as plain data — fabric,
// partition, workload, background, faults, transport, codec, seeds,
// horizon — and Run builds the fabric, wires one transport stack per
// participating host, encodes and sends one gradient per workload flow and
// drives the simulator until every flow is done or failed. The experiment
// sweeps, the chaos matrix and cmd/netsim are tables of Scenarios plus a
// reading of the Result; nothing else wires stacks, codecs and flows onto
// a fabric.
package scenario

import (
	"fmt"
	"math"
	"sync/atomic"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/transport"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

// LinkFault puts a fault process, a flap, or both on one host's uplink,
// both directions: host links validate against the host count alone.
type LinkFault struct {
	Host   int                // index into Topology.Hosts
	Config netsim.FaultConfig // zero: injects nothing
	// FlapFor > 0 takes the link down during [FlapAt, FlapAt+FlapFor).
	FlapAt, FlapFor netsim.Time
}

// Scenario describes one run; zero optional fields mean "off" or "the
// layer's default".
type Scenario struct {
	Fabric netsim.FabricSpec
	// Shards > 0 partitions the fabric across that many parallel
	// simulators (at most one per rack); 0 runs it on a plain Sim, with
	// bit-identical results. A registry passed to Run sees the transports'
	// telemetry directly only on a plain Sim — a partitioned run reports
	// through Result.Snapshot.
	Shards int

	// Workload is a netsim.ParseWorkload spec, one gradient per flow.
	// WorkloadSeed keys what the workload draws: the permutation, and
	// flow i's cross-traffic stream (WorkloadSeed+i).
	Workload     string
	WorkloadSeed uint64
	// Flow i sends Gradient(GradSeed+i, Dim), encoded under Codec with
	// Flow set to i, over the reliable or the trim-aware transport.
	Dim       int
	GradSeed  uint64
	Codec     core.Config
	Reliable  bool
	Transport transport.Config
	// Decode reconstructs every gradient at its destination and reports
	// its NMSE and the decoder's statistics per flow.
	Decode bool

	// CrossRate > 0 adds a Poisson stream of MTU packets (packets/s)
	// beside every gradient flow. MiceRate and ElephantRate drive
	// netsim.BackgroundMix (seeded by MixSeed); BackgroundSeed keys its
	// streams' arrival processes.
	CrossRate, MiceRate, ElephantRate float64
	MixSeed, BackgroundSeed           uint64

	Faults []LinkFault

	// Horizon bounds simulated time. Slice > 0 runs in steps of that
	// length and stops once every flow has settled (open-loop background
	// never drains the event queue); 0 runs straight to the horizon.
	Horizon, Slice netsim.Time
}

// Gradient is the seeded synthetic gradient every rig sends: n draws from
// N(0, 0.05²).
func Gradient(seed uint64, n int) []float32 {
	r := xrand.New(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64() * 0.05)
	}
	return v
}

// Validate rejects a scenario that cannot run, before any simulator
// exists: fabric geometry, workload grammar and fan against the host
// count, shard count against the rack count, rates finite and ≥ 0.
func (s Scenario) Validate() error { _, err := s.workload(); return err }

// workload validates the scenario and resolves its workload.
func (s Scenario) workload() (wl netsim.Workload, err error) {
	if err = s.Fabric.Validate(); err != nil {
		return wl, err
	}
	hosts, racks := s.Fabric.Hosts(), s.Fabric.Racks()
	if wl, err = netsim.ParseWorkload(s.Workload, hosts, s.WorkloadSeed); err != nil {
		return wl, err
	}
	if _, err = core.NewEncoderWith(core.WithConfig(s.Codec)); err != nil {
		return wl, err
	}
	for _, rate := range []float64{s.CrossRate, s.MiceRate, s.ElephantRate} {
		if !(rate >= 0) || math.IsInf(rate, 1) {
			return wl, fmt.Errorf("scenario: cross, mice and elephant rates must be finite and ≥ 0, got %v / %v / %v",
				s.CrossRate, s.MiceRate, s.ElephantRate)
		}
	}
	for _, f := range s.Faults {
		if f.Host < 0 || f.Host >= hosts || f.FlapAt < 0 || f.FlapFor < 0 {
			return wl, fmt.Errorf("scenario: link fault on host %d of %d, flap at %v for %v", f.Host, hosts, f.FlapAt, f.FlapFor)
		}
	}
	switch {
	case s.Shards < 0 || s.Shards > racks:
		err = fmt.Errorf("scenario: shard count %d is outside 0..%d: a rack is never split and this %s fabric has %d",
			s.Shards, racks, s.Fabric.Kind, racks)
	case s.Dim <= 0:
		err = fmt.Errorf("scenario: gradient dimension must be positive, got %d", s.Dim)
	case s.Decode && s.Fabric.Queue.AggregateTrimmable:
		err = fmt.Errorf("scenario: a per-sender decoder cannot read switch-aggregated packets; turn off Decode or aggregation")
	case s.Horizon <= 0 || s.Slice < 0:
		err = fmt.Errorf("scenario: horizon must be positive and slice ≥ 0, got %v / %v", s.Horizon, s.Slice)
	}
	return wl, err
}

// Flow is the outcome of one gradient flow between two host indices.
type Flow struct {
	Src, Dst int
	Done     netsim.Time // when the sender learned the message was complete; 0: never
	Err      error       // set when the transport gave up on the message
	// Under Scenario.Decode: whether the destination could reconstruct the
	// gradient, its error against what was sent, and the decoder's counts.
	Decoded bool
	NMSE    float64
	Stats   core.Stats
}

// Result is what a run leaves behind.
type Result struct {
	Workload string // the resolved workload's name
	Flows    []Flow
	// FCT holds the completed flows' completion times; FCT.Count() is how
	// many finished.
	FCT *netsim.FCTRecorder
	// Stacks holds each participating host's transport stack by host
	// index (nil for a host that neither sent nor received a gradient).
	Stacks []*transport.Stack
	Topo   *netsim.Topology
	// Partition and Window describe the shard map of a partitioned run.
	Partition []netsim.ShardAssignment
	Window    netsim.Time
	// Now and Processed are the virtual clock and the executed event count
	// when the run stopped.
	Now       netsim.Time
	Processed uint64

	reg *obs.Registry
	eng *netsim.Engine // nil on a plain Sim
}

// Snapshot is the run's telemetry: the registry's, merged with every
// shard's on a partitioned run. Empty without a registry.
func (r *Result) Snapshot() obs.Snapshot {
	if r.eng != nil {
		return r.eng.Snapshot()
	}
	return r.reg.Snapshot()
}

// Retransmits sums the transports' retransmission counts.
func (r *Result) Retransmits() (n int) {
	for _, s := range r.Stacks {
		if s != nil {
			n += s.Stats.Retransmits
		}
	}
	return n
}

// runner is what the loop needs of a plain Sim or a partitioned Engine.
type runner interface {
	RunUntil(netsim.Time)
	Now() netsim.Time
}

// Rig is a prepared run: fabric built, faults injected, every gradient
// encoded and handed to its transport, background started — everything
// but the event loop, which Run drives once.
type Rig struct {
	s       Scenario
	sim     *netsim.Sim
	loop    runner
	res     *Result
	decs    []*core.Decoder // per flow; Decode only
	open    []*netsim.CrossTraffic
	pending atomic.Int64 // flows neither done nor failed
}

// Run prepares s and drives it to completion or the horizon. reg may be
// nil (telemetry off).
func Run(s Scenario, reg *obs.Registry) (*Result, error) {
	rig, err := Prepare(s, reg)
	if err != nil {
		return nil, err
	}
	return rig.Run(), nil
}

// Prepare does everything Run does short of the event loop, for a caller
// that times the loop alone. The returned rig must be Run.
func Prepare(s Scenario, reg *obs.Registry) (*Rig, error) {
	wl, err := s.workload()
	if err != nil {
		return nil, err
	}
	sim := netsim.NewSim()
	r := &Rig{s: s, sim: sim, loop: sim}
	topo, err := s.Fabric.Build(sim, netsim.WithRegistry(reg))
	if err != nil {
		return nil, err
	}
	r.res = &Result{Workload: wl.Name, Topo: topo, Stacks: make([]*transport.Stack, len(topo.Hosts)), reg: reg}
	if s.Shards > 0 {
		// Stacks bind to their host's shard simulator and a flap schedules
		// on it, so the partition comes first.
		eng, err := netsim.ShardTopology(topo, s.Shards)
		if err != nil {
			return nil, err
		}
		r.loop, r.res.eng = eng, eng
		r.res.Partition, r.res.Window = eng.Partition(), eng.Window()
	}
	for _, f := range s.Faults {
		h := topo.Hosts[f.Host]
		topo.Net.InjectFaults(h.ID(), h.Uplink().Peer(), f.Config)
		if f.FlapFor > 0 {
			topo.Net.FlapLink(h.ID(), h.Uplink().Peer(), f.FlapAt, f.FlapFor)
		}
	}
	if err := r.send(wl.GradientFlows()); err != nil {
		if r.res.eng != nil {
			r.res.eng.Close()
		}
		return nil, err
	}
	mix := netsim.BackgroundMix(len(topo.Hosts), s.MiceRate, s.ElephantRate, s.MixSeed)
	r.open = append(r.open, mix.StartBackground(topo, s.BackgroundSeed)...)
	return r, nil
}

// send attaches a stack to every participating host and hands each flow's
// encoded gradient to its transport.
func (r *Rig) send(flows []netsim.Flow) error {
	s, res, topo := r.s, r.res, r.res.Topo
	// One decoder table per destination, keyed by sender: a receive
	// handler runs on its host's shard and touches only its own table.
	decsAt := make([]map[netsim.NodeID]*core.Decoder, len(topo.Hosts))
	stackFor := func(h int) (*transport.Stack, error) {
		if res.Stacks[h] != nil {
			return res.Stacks[h], nil
		}
		st, err := transport.New(topo.Hosts[h], transport.WithConfig(s.Transport))
		if err == nil && s.Decode {
			decs := map[netsim.NodeID]*core.Decoder{}
			decsAt[h] = decs
			st.Receiver = transport.ReceiverFunc(func(src netsim.NodeID, pl []byte) {
				if d := decs[src]; d != nil {
					//trimlint:allow swallowed-error rejections are counted in the decoder's Stats, which the flow's outcome reports
					_ = d.Handle(pl)
				}
			})
		}
		res.Stacks[h] = st
		return st, err
	}

	res.FCT = netsim.NewFCTRecorder()
	res.FCT.Obs = res.reg
	res.Flows = make([]Flow, len(flows))
	r.pending.Store(int64(len(flows)))
	for i, f := range flows {
		out := &res.Flows[i]
		out.Src, out.Dst = f.Src, f.Dst
		src, err := stackFor(f.Src)
		if err != nil {
			return err
		}
		if _, err := stackFor(f.Dst); err != nil {
			return err
		}
		cfg := s.Codec
		cfg.Flow = uint32(i)
		enc, err := core.NewEncoderWith(core.WithConfig(cfg), core.WithRegistry(res.reg))
		if err != nil {
			return err
		}
		// Under switch aggregation every sender shares one message id:
		// matching keys are what lets a switch fold their packets (flows
		// stay distinct, so reassembly still works per sender).
		msgID := uint32(i + 1)
		if s.Fabric.Queue.AggregateTrimmable {
			msgID = 1
		}
		grad := Gradient(s.GradSeed+uint64(i), s.Dim)
		msg, err := enc.Encode(1, msgID, grad)
		if err != nil {
			return err
		}
		if s.Decode {
			d, err := core.NewDecoderWith(msgID, core.WithConfig(cfg), core.WithRegistry(res.reg))
			if err != nil {
				return err
			}
			decsAt[f.Dst][topo.Hosts[f.Src].ID()] = d
			r.decs = append(r.decs, d)
		}
		// Completions fire on the sender's shard: each writes its own
		// Flow, and the loop reads them after the engine's barrier.
		id := uint64(i + 1)
		res.FCT.FlowStarted(id, 0)
		onDone := func(at netsim.Time) { out.Done = at; res.FCT.FlowFinished(id, at); r.pending.Add(-1) }
		onFail := func(err error) { out.Err = err; r.pending.Add(-1) }
		dst := topo.Hosts[f.Dst].ID()
		if s.Reliable {
			src.SendReliable(dst, msgID, append(append([][]byte{}, msg.Meta...), msg.Data...), onDone, onFail)
		} else {
			src.SendTrimmable(dst, msgID, msg.Meta, msg.Data, onDone, onFail)
		}
		if s.CrossRate > 0 {
			ct := netsim.NewCrossTraffic(topo.Hosts[f.Src], dst, netsim.ElephantPacketSize, s.CrossRate, s.WorkloadSeed+uint64(i))
			ct.Start()
			r.open = append(r.open, ct)
		}
	}
	return nil
}

// Run drives the event loop — to the horizon, or in slices until every
// flow has settled — then stops the open-loop traffic, decodes, and
// returns the result. It is the only place a scenario's simulator runs.
func (r *Rig) Run() *Result {
	s, res := r.s, r.res
	step := s.Slice
	if step == 0 {
		step = s.Horizon
	}
	for now := netsim.Time(0); r.pending.Load() > 0 && now < s.Horizon; now += step {
		r.loop.RunUntil(now + step)
	}
	for _, ct := range r.open {
		ct.Stop()
	}
	for i, d := range r.decs {
		f := &res.Flows[i]
		got, st, err := d.Reconstruct(s.Dim)
		if err != nil {
			f.Stats = d.Stats() // still flushes the decoder's counts into the registry
			continue
		}
		f.Decoded, f.NMSE, f.Stats = true, vecmath.NMSE(Gradient(s.GradSeed+uint64(i), s.Dim), got), st
	}
	res.Now, res.Processed = r.loop.Now(), r.sim.Processed
	if res.eng != nil {
		res.Processed = res.eng.Processed()
		res.eng.Close()
	}
	return res
}
