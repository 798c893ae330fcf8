package exp

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

// shardCell is one cell of the sharded-engine strong-scaling sweep (E14):
// a four-rack fabric partitioned into shards, one trimmable RHT gradient
// flow per workload entry over a background mix, per-flow FCT spans in the
// telemetry, run to completion in 10 ms slices.
type shardCell struct {
	kind, workload string // fabric ("fattree", "leafspine") and netsim workload spec
	shards, dim    int
}

// cellResult is what one cell produced: a digest of every observable the
// bit-identity contract covers (the canonical merged telemetry — port
// counters, transport metrics, flow spans — plus completion outcomes), and
// the columns the sweep prints.
type cellResult struct {
	digest           string
	completed, flows int
	wallMs           float64
}

// run drives the cell through the partitioned engine.
func (c shardCell) run(o Options) (res cellResult, err error) {
	q := netsim.QueueConfig{
		CapacityBytes:     48 << 10,
		HighCapacityBytes: 1 << 20,
		Mode:              netsim.TrimOverflow,
	}
	link := netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond}
	reg := obs.New()
	sim := netsim.NewSim()
	var topo *netsim.Topology
	switch c.kind {
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
		return res, fmt.Errorf("unknown sharded-sweep fabric %q", c.kind)
	}
	if err != nil {
		return res, err
	}
	eng, err := netsim.ShardTopology(topo, c.shards)
	if err != nil {
		return res, err
	}
	defer eng.Close()

	n := len(topo.Hosts)
	wl, err := netsim.ParseWorkload(c.workload, n, 7+o.Seed)
	if err != nil {
		return res, err
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
			return res, err
		}
		if _, err := stackFor(f.Dst); err != nil {
			return res, err
		}
		cfg := coreCfg
		cfg.Flow = uint32(i)
		enc, err := core.NewEncoderWith(core.WithConfig(cfg))
		if err != nil {
			return res, err
		}
		msg, err := enc.Encode(1, uint32(i+1), randGrad(uint64(80+i)+o.Seed, c.dim))
		if err != nil {
			return res, err
		}
		id := uint64(i + 1)
		fct.FlowStarted(id, 0)
		src.SendTrimmable(topo.Hosts[f.Dst].ID(), uint32(i+1), msg.Meta, msg.Data,
			func(at netsim.Time) { done.Add(1); fct.FlowFinished(id, at) }, nil)
	}
	bg := netsim.BackgroundMix(n, 2e5, 5e4, 41+o.Seed).StartBackground(topo, 43+o.Seed)

	elapsed := stopwatch()
	const slice = 10 * netsim.Millisecond
	for now := netsim.Time(0); done.Load() < int64(len(grads)) && now < 10*netsim.Second; now += slice {
		eng.RunUntil(now + slice)
	}
	res.wallMs = float64(elapsed().Microseconds()) / 1000
	for _, ct := range bg {
		ct.Stop()
	}

	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, eng.Snapshot()); err != nil {
		return res, err
	}
	fmt.Fprintf(&buf, "completed=%d maxfct=%d vnow=%d processed=%d",
		done.Load(), fct.Max(), eng.Now(), eng.Processed())
	res.digest = buf.String()
	res.completed, res.flows = int(done.Load()), len(grads)
	return res, nil
}
