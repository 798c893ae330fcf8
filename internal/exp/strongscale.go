package exp

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

// E14 — strong scaling of the sharded simulator. The same gradient
// workload under background load runs at 1, 2, and 4 shards on each
// multi-rack fabric; the table reports wall-clock speedup over the
// 1-shard run and, crucially, whether every run produced bit-identical
// results (merged obs JSONL, completion count, straggler FCT). Speedup
// is a property of the host machine — on a single-core runner the ratio
// sits near 1.0 — but the identical column must read true everywhere,
// always: parallelism is free to buy nothing, never to change physics.

// runStrongScaleCell drives one (fabric, workload, shards) cell through
// the partitioned engine and returns its wall clock plus a digest of
// every observable output.
func runStrongScaleCell(kind, workload string, shards, dim int, o Options) (digest string, completed, flows int, wallMs float64, err error) {
	q := netsim.QueueConfig{
		CapacityBytes:     48 << 10,
		HighCapacityBytes: 1 << 20,
		Mode:              netsim.TrimOverflow,
	}
	link := netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond}
	reg := obs.New()
	sim := netsim.NewSim()
	var topo *netsim.Topology
	switch kind {
	case "fattree":
		topo, err = netsim.NewFatTree(sim, netsim.FatTreeConfig{
			K: 4, HostLink: link, Queue: q, ECMPSeed: 31 + o.Seed,
		}, netsim.WithRegistry(reg))
	case "leafspine":
		topo, err = netsim.NewLeafSpine(sim, netsim.LeafSpineConfig{
			Leaves: 4, Spines: 2, HostsPerLeaf: 4,
			HostLink: link, Oversub: 4, Queue: q, ECMPSeed: 31 + o.Seed,
		}, netsim.WithRegistry(reg))
	default:
		return "", 0, 0, 0, fmt.Errorf("unknown strong-scaling fabric %q", kind)
	}
	if err != nil {
		return "", 0, 0, 0, err
	}
	eng, err := netsim.ShardTopology(topo, shards)
	if err != nil {
		return "", 0, 0, 0, err
	}
	defer eng.Close()

	n := len(topo.Hosts)
	wl, err := netsim.ParseWorkload(workload, n, 7+o.Seed)
	if err != nil {
		return "", 0, 0, 0, err
	}
	grads := wl.GradientFlows()

	// Stacks bind to their host's shard simulator, so they are built only
	// after partitioning — same order cmd/netsim uses.
	stacks := map[int]*transport.Stack{}
	stackFor := func(h int) (*transport.Stack, error) {
		if s, ok := stacks[h]; ok {
			return s, nil
		}
		s, err := transport.New(topo.Hosts[h])
		if err != nil {
			return nil, err
		}
		s.Receiver = transport.ReceiverFunc(func(netsim.NodeID, []byte) {})
		stacks[h] = s
		return s, nil
	}
	fct := netsim.NewFCTRecorder()
	fct.Obs = reg
	// Completions fire on shard goroutines.
	var done atomic.Int64
	coreCfg := core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 12}
	for i, f := range grads {
		src, err := stackFor(f.Src)
		if err != nil {
			return "", 0, 0, 0, err
		}
		if _, err := stackFor(f.Dst); err != nil {
			return "", 0, 0, 0, err
		}
		cfg := coreCfg
		cfg.Flow = uint32(i)
		enc, err := core.NewEncoderWith(core.WithConfig(cfg))
		if err != nil {
			return "", 0, 0, 0, err
		}
		msg, err := enc.Encode(1, uint32(i+1), randGrad(uint64(80+i)+o.Seed, dim))
		if err != nil {
			return "", 0, 0, 0, err
		}
		id := uint64(i + 1)
		fct.FlowStarted(id, 0)
		src.SendTrimmable(topo.Hosts[f.Dst].ID(), uint32(i+1), msg.Meta, msg.Data,
			func(at netsim.Time) { done.Add(1); fct.FlowFinished(id, at) }, nil)
	}
	bg := netsim.BackgroundMix(n, 2e5, 5e4, 41+o.Seed).StartBackground(topo, 43+o.Seed)

	//trimlint:allow determinism wall clock measures simulator throughput, it never enters simulated output
	start := time.Now()
	const slice = 10 * netsim.Millisecond
	for now := netsim.Time(0); done.Load() < int64(len(grads)) && now < 10*netsim.Second; now += slice {
		eng.RunUntil(now + slice)
	}
	//trimlint:allow determinism reported as a perf column, not part of the seeded experiment output
	wallMs = float64(time.Since(start).Microseconds()) / 1000
	for _, ct := range bg {
		ct.Stop()
	}

	// The digest folds in every observable the bit-identity contract
	// covers: the canonical merged telemetry (port counters, transport
	// metrics, flow spans) plus completion outcomes.
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, eng.Snapshot()); err != nil {
		return "", 0, 0, 0, err
	}
	fmt.Fprintf(&buf, "completed=%d maxfct=%d vnow=%d processed=%d",
		done.Load(), fct.Max(), eng.Now(), eng.Processed())
	return buf.String(), int(done.Load()), len(grads), wallMs, nil
}

// runStrongScale is the E14 sweep: shards × fabric × workload.
func runStrongScale(w io.Writer, o Options) error {
	fabrics := []string{"fattree", "leafspine"}
	workloads := []string{"incast", "alltoall"}
	dim := 1 << 14
	if o.Quick {
		fabrics = []string{"fattree"}
		workloads = []string{"incast"}
		dim = 1 << 12
	}
	// Both fabrics have 4 racks, so 4 shards is the partition ceiling.
	shardCounts := []int{1, 2, 4}

	t := NewTable(fmt.Sprintf("Strong scaling: sharded engine, %d CPUs (E14)", runtime.GOMAXPROCS(0)),
		"topology", "workload", "shards", "completed", "wall_ms", "speedup", "identical")
	for _, kind := range fabrics {
		for _, wl := range workloads {
			refDigest, refWall := "", 0.0
			for _, shards := range shardCounts {
				digest, completed, flows, wallMs, err := runStrongScaleCell(kind, wl, shards, dim, o)
				if err != nil {
					return fmt.Errorf("exp: strongscale %s/%s/%d: %w", kind, wl, shards, err)
				}
				identical := "ref"
				speedup := 1.0
				if shards == 1 {
					refDigest, refWall = digest, wallMs
				} else {
					identical = fmt.Sprintf("%v", digest == refDigest)
					if digest != refDigest {
						return fmt.Errorf("exp: strongscale %s/%s: %d-shard output diverges from 1-shard", kind, wl, shards)
					}
					if wallMs > 0 {
						speedup = refWall / wallMs
					}
				}
				t.Add(kind, wl, shards,
					fmt.Sprintf("%d/%d", completed, flows),
					wallMs, fmt.Sprintf("%.2f", speedup), identical)
			}
		}
	}
	return emit(w, o, t)
}

func init() {
	register(Runner{"strongscale", "sharded-engine strong scaling: speedup and bit-identity vs shard count (E14)", runStrongScale})
}
