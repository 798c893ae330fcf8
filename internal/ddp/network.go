package ddp

import (
	"errors"
	"fmt"

	"trimgrad/internal/collective"
	"trimgrad/internal/core"
	"trimgrad/internal/ml"
	"trimgrad/internal/netsim"
	"trimgrad/internal/transport"
)

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

// NewNetTrainer builds the closed-loop trainer: every round's all-reduce
// runs over a live netsim fabric whose shallow-buffer switches trim (or
// drop) under the incast the exchange itself creates, so the trim fraction
// is an outcome of queue dynamics and communication time is measured. The
// fabric has cfg.Workers hosts, plus one cross-traffic host when CrossRate
// > 0. A registry passed via WithRegistry is bound to the fabric, so every
// layer underneath reports into it.
func NewNetTrainer(train, test *ml.Dataset, opts ...Option) (*Trainer, error) {
	t, f, err := newTrainer(train, test, opts)
	if err != nil {
		return nil, err
	}
	cfg := t.cfg
	if cfg.Scheme == nil {
		return nil, errors.New("ddp: networked training needs an encoding scheme (wire format)")
	}
	if err := refuseUnread("by NewNetTrainer; the fabric's queues decide what trims or drops",
		unread{"TrimRate", cfg.TrimRate != 0}, unread{"DropRate", cfg.DropRate != 0},
		unread{"Injector", cfg.Injector != nil}, unread{"ErrorFeedback", cfg.ErrorFeedback}); err != nil {
		return nil, err
	}
	if f == nil {
		f = &FabricConfig{}
	}
	fabric := f.withDefaults()
	nHosts := cfg.Workers
	if fabric.CrossRate > 0 {
		nHosts++
	}
	spec, err := fabricSpec(fabric, nHosts)
	if err != nil {
		return nil, err
	}
	sim := netsim.NewSim()
	topo, err := spec.Build(sim, netsim.WithRegistry(t.obs))
	if err != nil {
		return nil, err
	}
	workers, err := collective.Bind(topo.Hosts[:cfg.Workers], transport.Config{},
		collective.WithConfig(core.Config{Params: *cfg.Scheme, RowSize: cfg.RowSize}), collective.WithMode(fabric.Mode))
	if err != nil {
		return nil, err
	}
	for _, w := range workers {
		// A round that cannot finish inside RoundTimeout surfaces as an
		// explicit per-rank error instead of an empty result: a crashed or
		// partitioned peer fails the round, never hangs it.
		w.Deadline = fabric.RoundTimeout
	}
	if fabric.CrossRate > 0 {
		src := topo.Hosts[len(topo.Hosts)-1]
		for i := 0; i < cfg.Workers; i++ {
			netsim.NewCrossTraffic(src, netsim.NodeID(i), 1500,
				fabric.CrossRate, cfg.Seed+uint64(i)*7).Start()
		}
	}
	compute := cfg.Cost.Compute + cfg.Cost.EncodeTime(cfg.Scheme)
	t.exchange = fabricExchange(sim, workers, fabric, compute)
	t.msgSpan = collective.MsgSpan(fabric.Algorithm, cfg.Workers)
	return t, nil
}

// fabricExchange returns NewNetTrainer's exchange: one all-reduce of the
// configured algorithm per round on the live fabric. The round's comm span
// is the simulated time the all-reduce took; its wall adds compute, the
// cost model's compute and encode seconds, to that.
func fabricExchange(sim *netsim.Sim, workers []*collective.Worker, fabric FabricConfig, compute float64) exchangeFunc {
	return func(epoch uint64, msgBase uint32, grads [][]float32) (exchanged, error) {
		start := sim.Now()
		outs, err := collective.RunAllReduce(sim, start+fabric.RoundTimeout, fabric.Algorithm, epoch, msgBase, workers, grads)
		if err != nil {
			return exchanged{}, fmt.Errorf("ddp: %w", err)
		}
		results := make([][]float32, len(outs))
		var lastDone netsim.Time
		for rank, o := range outs {
			if o.Avg == nil {
				return exchanged{}, fmt.Errorf("ddp: rank %d round timed out (baseline congestion collapse?)", rank)
			}
			results[rank], lastDone = o.Avg, max(lastDone, o.At)
		}
		// Replica consistency: average the per-worker averages so every
		// replica applies the same update (each already divides by n).
		out := exchanged{avg: mean(results), comm: (lastDone - start).Seconds()}
		out.wall = compute + out.comm
		// AggStats accumulates across operations; taking and clearing it
		// leaves each round's share.
		for _, w := range workers {
			out.trimmed += w.AggStats.TrimmedCoords
			out.total += w.AggStats.TotalCoords
			w.AggStats = core.Stats{}
		}
		return out, nil
	}
}
