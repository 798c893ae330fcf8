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
	"strings"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, runs the simulation,
// prints the report to stdout and returns the exit status — 2 for a
// rejected invocation (one line on stderr), 1 for a failed run or audit.
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
	qcfg := netsim.QueueConfig{CapacityBytes: *buffer, HighCapacityBytes: 8 * *buffer, Mode: netsim.DropTail, AggregateTrimmable: *agg}
	if *mode == "trim" {
		qcfg.Mode = netsim.TrimOverflow
	}
	// Star/dumbbell/ring size from -senders (plus one receiver host);
	// fattree from -k; leafspine from -leaves/-spines/-hostsperleaf, its
	// uplinks thinned by -oversub.
	fabric := netsim.FabricSpec{
		Kind: *topo, N: *senders + 1, K: *k,
		Leaves: *leaves, Spines: *spines, HostsPerLeaf: *perLeaf, Oversub: *oversub,
		Link:  netsim.LinkConfig{Bandwidth: netsim.Gbps(*gbps), Delay: 5 * netsim.Microsecond},
		Queue: qcfg, ECMPSeed: *seed,
	}
	// -shards 0 sizes the partition to the machine, capped at the rack
	// count; an explicit oversized count is rejected, never clamped.
	nShards := *shards
	if nShards == 0 {
		nShards = min(runtime.GOMAXPROCS(0), fabric.Racks())
	}
	s := scenario.Scenario{
		Fabric: fabric, Shards: nShards,
		Workload: *workload, WorkloadSeed: *seed, Dim: *dim, GradSeed: *seed,
		Codec:     core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 13},
		Reliable:  *mode == "drop",
		CrossRate: *cross, MiceRate: *mice, ElephantRate: *elephant,
		MixSeed: *seed, BackgroundSeed: *seed + 17,
		// Open-loop background and cross traffic never drain the event
		// queue, so the run stops once every gradient flow has landed.
		Horizon: 60 * netsim.Second, Slice: 10 * netsim.Millisecond,
	}
	if err := s.Validate(); err != nil {
		// Package netsim's errors carry the prefix this command prints.
		return reject("%s", strings.TrimPrefix(err.Error(), "netsim: "))
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.New()
	}
	res, err := scenario.Run(s, reg)
	if err != nil {
		return fail(err)
	}
	if err := res.Topo.Net.Audit(); err != nil {
		return fail(err)
	}

	if *verbose {
		fmt.Fprintf(stdout, "shards=%d lookahead=%v\n", len(res.Partition), res.Window)
		for _, a := range res.Partition {
			fmt.Fprintf(stdout, "shard %d: switches=%v hosts=%v\n", a.Shard, a.Switches, a.Hosts)
		}
	}
	trimmedRx := 0
	for _, st := range res.Stacks {
		if st != nil {
			trimmedRx += st.Stats.TrimmedReceived
		}
	}
	fmt.Fprintf(stdout, "topology=%s workload=%s mode=%s agg=%v hosts=%d flows=%d dim=%d buffer=%dB\n",
		res.Topo.Kind, res.Workload, *mode, *agg, len(res.Topo.Hosts), len(res.Flows), *dim, *buffer)
	fmt.Fprintf(stdout, "completed           %d/%d\n", res.FCT.Count(), len(res.Flows))
	fmt.Fprintf(stdout, "FCT p50 / p99 / max %v / %v / %v\n",
		res.FCT.Percentile(0.5), res.FCT.Percentile(0.99), res.FCT.Max())
	fmt.Fprintf(stdout, "retransmits         %d\n", res.Retransmits())
	fmt.Fprintf(stdout, "trimmed received    %d\n", trimmedRx)
	for _, tier := range res.Topo.Tiers {
		st := netsim.PortTotals(tier.Switches)
		fmt.Fprintf(stdout, "tier %-6s (%2d sw) enq=%d tx=%d trim=%d drop=%d agg=%d maxQ=%dB\n",
			tier.Name, len(tier.Switches), st.Enqueued, st.Transmitted,
			st.Trimmed, st.Dropped, st.Aggregated, st.MaxQueueBytes)
	}

	if *metrics != "" {
		// The merged snapshot is byte-identical at any -shards value.
		if err := obs.WriteJSONLFile(*metrics, res.Snapshot()); err != nil {
			return fail(err)
		}
	}
	return 0
}
