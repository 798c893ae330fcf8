// Command netsim runs a standalone network simulation of gradient traffic
// through a congested fabric and prints flow-completion and per-tier
// queue statistics — the motivation experiments of §1–§2.
//
// Examples:
//
//	netsim -topo star -senders 8 -mode trim
//	netsim -topo star -senders 8 -mode trim -agg
//	netsim -topo dumbbell -senders 4 -mode drop -cross 5e5
//	netsim -topo fattree -k 4 -workload incast
//	netsim -topo leafspine -leaves 4 -spines 2 -oversub 4 -workload permutation
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

// buildTopology constructs the -topo fabric. Star/dumbbell/ring size from
// -senders (plus one receiver host); fattree sizes from -k; leafspine
// from -leaves/-spines/-hostsperleaf and thins its uplinks by -oversub.
func buildTopology(sim *netsim.Sim, kind string, senders, k, leaves, spines, perLeaf int,
	oversub float64, link netsim.LinkConfig, q netsim.QueueConfig, seed uint64,
	reg *obs.Registry) (*netsim.Topology, error) {
	opt := netsim.WithRegistry(reg)
	switch kind {
	case "star":
		return netsim.NewStar(sim, senders+1, link, q, opt), nil
	case "dumbbell":
		return netsim.NewDumbbell(sim, senders, 1, link, link, q, opt), nil
	case "ring":
		return netsim.NewRing(sim, senders+1, link, link, q, opt), nil
	case "fattree":
		return netsim.NewFatTree(sim, netsim.FatTreeConfig{
			K: k, HostLink: link, Queue: q, ECMPSeed: seed,
		}, opt)
	case "leafspine":
		return netsim.NewLeafSpine(sim, netsim.LeafSpineConfig{
			Leaves: leaves, Spines: spines, HostsPerLeaf: perLeaf,
			HostLink: link, Oversub: oversub, Queue: q, ECMPSeed: seed,
		}, opt)
	}
	return nil, fmt.Errorf("unknown topology %q", kind)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, runs the simulation,
// prints the report to stdout and returns the exit status — 2 for a
// rejected invocation (one line on stderr), 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topo     = fs.String("topo", "star", "topology: star|dumbbell|ring|fattree|leafspine")
		workload = fs.String("workload", "incast", "gradient traffic pattern: incast[:fan]|alltoall|permutation")
		senders  = fs.Int("senders", 8, "gradient senders (star/dumbbell/ring host count minus the receiver)")
		k        = fs.Int("k", 4, "fat-tree arity (fattree topology; k³/4 hosts)")
		leaves   = fs.Int("leaves", 4, "leaf switches (leafspine topology)")
		spines   = fs.Int("spines", 2, "spine switches (leafspine topology)")
		perLeaf  = fs.Int("hostsperleaf", 4, "hosts per leaf (leafspine topology)")
		oversub  = fs.Float64("oversub", 1, "leaf oversubscription ratio (leafspine topology)")
		mode     = fs.String("mode", "trim", "switch behaviour: trim|drop")
		agg      = fs.Bool("agg", false, "aggregate trimmable packets in the switches (senders share one message ID); needs -mode trim")
		dim      = fs.Int("dim", 1<<16, "gradient coordinates per sender")
		buffer   = fs.Int("buffer", 64<<10, "switch buffer bytes per port")
		gbps     = fs.Float64("gbps", 10, "link bandwidth in Gbit/s")
		cross    = fs.Float64("cross", 0, "legacy cross-traffic rate (packets/s) per gradient sender toward its receiver")
		mice     = fs.Float64("mice", 0, "background mouse-flow rate (packets/s per host; 200 B packets)")
		elephant = fs.Float64("elephants", 0, "background elephant-flow rate (packets/s per fourth host; 1500 B packets)")
		seed     = fs.Uint64("seed", 1, "seed")
		shards   = fs.Int("shards", 0, "simulator shards (parallel partitions; 0 = min(GOMAXPROCS, rack switches)); results are bit-identical at every count")
		verbose  = fs.Bool("v", false, "print the shard partition map (shard → switches/hosts)")
		metrics  = fs.String("metrics", "", "export per-port/transport telemetry and flow spans as JSONL to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	reject := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "netsim: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "netsim:", err)
		return 1
	}

	if _, err := netsim.ParseTopology(*topo); err != nil {
		return reject("%v", err)
	}
	if *mode != "trim" && *mode != "drop" {
		return reject("-mode must be trim or drop, got %q", *mode)
	}
	if *agg && *mode != "trim" {
		return reject("-agg requires -mode trim")
	}
	if !(*gbps > 0) {
		return reject("-gbps must be positive, got %v", *gbps)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"senders", *senders}, {"buffer", *buffer}, {"dim", *dim}, {"k", *k}, {"leaves", *leaves}, {"spines", *spines}, {"hostsperleaf", *perLeaf}} {
		if f.v <= 0 {
			return reject("-%s must be positive, got %d", f.name, f.v)
		}
	}
	qcfg := netsim.QueueConfig{
		CapacityBytes:     *buffer,
		HighCapacityBytes: 8 * *buffer,
		Mode:              netsim.DropTail,
	}
	if *mode == "trim" {
		qcfg.Mode = netsim.TrimOverflow
	}
	qcfg.AggregateTrimmable = *agg
	link := netsim.LinkConfig{Bandwidth: netsim.Gbps(*gbps), Delay: 5 * netsim.Microsecond}

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.New()
	}
	sim := netsim.NewSim()
	t, err := buildTopology(sim, *topo, *senders, *k, *leaves, *spines, *perLeaf,
		*oversub, link, qcfg, *seed, reg)
	if err != nil {
		return fail(err)
	}
	// Partition the fabric across shards. 0 sizes to the machine, capped at
	// the rack count; an explicit oversized count is rejected by
	// ShardTopology with the rack arithmetic spelled out — never clamped.
	nRacks := len(t.Tiers[0].Switches)
	nShards := *shards
	if nShards == 0 {
		if nShards = runtime.GOMAXPROCS(0); nShards > nRacks {
			nShards = nRacks
		}
	}
	eng, err := netsim.ShardTopology(t, nShards)
	if err != nil {
		return fail(err)
	}
	defer eng.Close()
	if *verbose {
		fmt.Fprintf(stdout, "shards=%d lookahead=%v\n", eng.Shards(), eng.Window())
		for _, a := range eng.Partition() {
			fmt.Fprintf(stdout, "shard %d: switches=%v hosts=%v\n", a.Shard, a.Switches, a.Hosts)
		}
	}

	nHosts := len(t.Hosts)
	w, err := netsim.ParseWorkload(*workload, nHosts, *seed)
	if err != nil {
		return fail(err)
	}
	if *mice > 0 || *elephant > 0 {
		w = netsim.Merge(w.Name+"+bg", w,
			netsim.BackgroundMix(nHosts, *mice, *elephant, *seed))
	}
	flows := w.GradientFlows()

	// One transport stack per host that sends or receives gradients.
	stacks := make(map[int]*transport.Stack)
	stackFor := func(h int) (*transport.Stack, error) {
		if s, ok := stacks[h]; ok {
			return s, nil
		}
		s, err := transport.New(t.Hosts[h],
			transport.WithReceiver(transport.ReceiverFunc(func(netsim.NodeID, []byte) {})))
		if err != nil {
			return nil, err
		}
		stacks[h] = s
		return s, nil
	}

	fct := netsim.NewFCTRecorder()
	fct.Obs = reg
	// Completions fire on shard goroutines; the counter must be atomic.
	var completed atomic.Int64
	for i, f := range flows {
		src, err := stackFor(f.Src)
		if err != nil {
			return fail(err)
		}
		// The destination's stack is created so it can reassemble.
		if _, err := stackFor(f.Dst); err != nil {
			return fail(err)
		}
		enc, err := core.NewEncoderWith(core.WithConfig(core.Config{
			Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 13, Flow: uint32(i),
		}))
		if err != nil {
			return fail(err)
		}
		grad := make([]float32, *dim)
		for j := range grad {
			grad[j] = float32(j%17) * 0.01
		}
		// Under -agg every sender shares one message ID: matching
		// aggregation keys are what lets the switch fold the incast's
		// packets (flows stay distinct, so reassembly still works per
		// sender).
		msgID := uint32(i + 1)
		if *agg {
			msgID = 1
		}
		msg, err := enc.Encode(*seed, msgID, grad)
		if err != nil {
			return fail(err)
		}
		id := uint64(i + 1)
		fct.FlowStarted(id, 0)
		onDone := func(at netsim.Time) { completed.Add(1); fct.FlowFinished(id, at) }
		dstID := t.Hosts[f.Dst].ID()
		if qcfg.Mode == netsim.TrimOverflow {
			src.SendTrimmable(dstID, msgID, msg.Meta, msg.Data, onDone, nil)
		} else {
			payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
			src.SendReliable(dstID, msgID, payloads, onDone, nil)
		}
		if *cross > 0 {
			ct := netsim.NewCrossTraffic(t.Hosts[f.Src], dstID, 1500, *cross, *seed+uint64(i))
			ct.Start()
		}
	}
	bg := w.StartBackground(t, *seed+17)
	// Run in slices and stop once every gradient flow lands: open-loop
	// background and cross traffic never drain the event queue, so a fixed
	// horizon would simulate long stretches of pure background.
	const slice = 10 * netsim.Millisecond
	for now := netsim.Time(0); completed.Load() < int64(len(flows)) && now < 60*netsim.Second; now += slice {
		eng.RunUntil(now + slice)
	}
	for _, ct := range bg {
		ct.Stop()
	}

	retrans, trimmedRx := 0, 0
	for _, s := range stacks {
		retrans += s.Stats.Retransmits
		trimmedRx += s.Stats.TrimmedReceived
	}

	fmt.Fprintf(stdout, "topology=%s workload=%s mode=%s agg=%v hosts=%d flows=%d dim=%d buffer=%dB\n",
		t.Kind, w.Name, *mode, *agg, nHosts, len(flows), *dim, *buffer)
	fmt.Fprintf(stdout, "completed           %d/%d\n", completed.Load(), len(flows))
	fmt.Fprintf(stdout, "FCT p50 / p99 / max %v / %v / %v\n",
		fct.Percentile(0.5), fct.Percentile(0.99), fct.Max())
	fmt.Fprintf(stdout, "retransmits         %d\n", retrans)
	fmt.Fprintf(stdout, "trimmed received    %d\n", trimmedRx)
	for _, tier := range t.Tiers {
		var st netsim.PortStats
		maxQ := 0
		for _, sw := range tier.Switches {
			for _, p := range sw.Ports() {
				st.Enqueued += p.Stats.Enqueued
				st.Transmitted += p.Stats.Transmitted
				st.Trimmed += p.Stats.Trimmed
				st.Dropped += p.Stats.Dropped
				st.Aggregated += p.Stats.Aggregated
				if p.Stats.MaxQueueBytes > maxQ {
					maxQ = p.Stats.MaxQueueBytes
				}
			}
		}
		fmt.Fprintf(stdout, "tier %-6s (%2d sw) enq=%d tx=%d trim=%d drop=%d agg=%d maxQ=%dB\n",
			tier.Name, len(tier.Switches), st.Enqueued, st.Transmitted,
			st.Trimmed, st.Dropped, st.Aggregated, maxQ)
	}

	if *metrics != "" {
		// The engine merges the pre-partition registry with every shard's
		// into one canonical snapshot — byte-identical at any -shards value.
		if err := writeMetrics(*metrics, eng.Snapshot()); err != nil {
			return fail(err)
		}
	}
	return 0
}

func writeMetrics(path string, snap obs.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
