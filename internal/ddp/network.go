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
	// Topology is the fabric's netsim.FabricSpec.Kind: "star" (default),
	// "dumbbell" or "ring", with one host per worker, or "fattree", sized
	// by FatTreeK. A fat tree routes worker traffic over ECMP paths, so
	// gradient exchanges contend inside the fabric rather than at a single
	// switch.
	Topology string
	// FatTreeK is the fat-tree arity; its k³/4 hosts must hold every
	// worker.
	FatTreeK int
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

// NewNetTrainer builds the closed-loop trainer: every round's all-reduce
// runs over a live netsim fabric whose shallow-buffer switches trim (or
// drop) under the incast the exchange itself creates, so the trim fraction
// is an outcome of queue dynamics and communication time is measured. The
// fabric has cfg.Workers hosts and carries nothing but the exchange, so a
// round ends when its traffic drains. A registry passed via WithRegistry is
// bound to the fabric, so every layer underneath reports into it.
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
	// Workers occupy hosts 0..Workers-1 (the builders order hosts by rank),
	// so the collective's rank→NodeID mapping needs no adjustment.
	spec := netsim.FabricSpec{Kind: fabric.Topology, N: cfg.Workers, K: fabric.FatTreeK, Link: fabric.Link, Queue: fabric.Queue}
	if spec.Validate() == nil && spec.Hosts() < cfg.Workers {
		return nil, fmt.Errorf("ddp: %s fabric holds %d hosts, need %d", spec.Kind, spec.Hosts(), cfg.Workers)
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
	compute := cfg.Cost.Compute + cfg.Cost.EncodeTime(cfg.Scheme)
	t.exchange = fabricExchange(topo.Net, workers, fabric, compute)
	t.msgSpan = collective.MsgSpan(fabric.Algorithm, cfg.Workers)
	return t, nil
}

// fabricExchange returns NewNetTrainer's exchange: one all-reduce of the
// configured algorithm per round on the live fabric, then Network.Audit of
// the fabric it leaves. The round's comm span is the simulated time the
// all-reduce took; its wall adds compute, the cost model's compute and
// encode seconds, to that.
func fabricExchange(net *netsim.Network, workers []*collective.Worker, fabric FabricConfig, compute float64) exchangeFunc {
	sim, round := net.Sim, 0
	return func(epoch uint64, msgBase uint32, grads [][]float32) (exchanged, error) {
		round++
		start := sim.Now()
		outs, err := collective.RunAllReduce(sim, start+fabric.RoundTimeout, fabric.Algorithm, epoch, msgBase, workers, grads)
		if err != nil {
			return exchanged{}, fmt.Errorf("ddp: %w", err)
		}
		if err := net.Audit(); err != nil {
			return exchanged{}, fmt.Errorf("ddp: round %d (epoch %d): %w", round, epoch, err)
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
