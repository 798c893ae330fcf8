// FSDP example (§5.5): model weights are sharded across workers; before
// computing, a worker must gather the other shards over the network.
// Here the gather runs through the trimmable codec under increasing trim
// rates, and we measure how the imperfect weights change test accuracy —
// the paper's conjecture is that a small fraction of imperfection is
// tolerable thanks to network redundancy.
package main

import (
	"fmt"
	"log"

	"trimgrad/internal/collective"
	"trimgrad/internal/core"
	"trimgrad/internal/ddp"
	"trimgrad/internal/ml"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

func main() {
	// Train a reference model first (single worker, no compression).
	train, test := ml.Synthetic(ml.SyntheticConfig{
		Classes: 20, Dim: 32, Train: 3000, Test: 800,
		Noise: 0.95, Spread: 1.0, Seed: 5,
	})
	tr, err := ddp.NewTrainer(train, test, ddp.WithConfig(ddp.Config{Workers: 1, Epochs: 6, Seed: 3, LR: 0.05}), ddp.WithHidden(64))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		log.Fatal(err)
	}
	model := tr.Model()
	base1, base5 := ml.Evaluate(model, test, 256)
	fmt.Printf("reference model: top1 %.4f top5 %.4f (%d params)\n\n",
		base1, base5, model.NumParams())

	params := append([]float32(nil), model.Params()...)

	// Shard the weights across 4 workers and all-gather them over a
	// congested star fabric whose switch trims.
	const nWorkers = 4
	shardLen := (len(params) + nWorkers - 1) / nWorkers
	shards := make([][]float32, nWorkers)
	for i := range shards {
		lo := i * shardLen
		hi := lo + shardLen
		if hi > len(params) {
			hi = len(params)
		}
		shards[i] = params[lo:hi]
	}

	for _, buffer := range []int{1 << 20, 24 << 10, 8 << 10} {
		sim := netsim.NewSim()
		star := netsim.NewStar(sim, nWorkers,
			netsim.LinkConfig{Bandwidth: netsim.Gbps(2), Delay: 2 * netsim.Microsecond},
			netsim.QueueConfig{
				CapacityBytes: buffer, HighCapacityBytes: 1 << 20,
				Mode: netsim.TrimOverflow,
			})
		workers, err := collective.Bind(star.Hosts, transport.Config{}, collective.WithConfig(core.Config{
			Params:  quant.Params{Scheme: quant.RHT},
			RowSize: 1 << 11,
		}), collective.WithMode(collective.Trimmable))
		if err != nil {
			log.Fatal(err)
		}
		var gathered [][]float32
		err = collective.AllGather(1, 10, workers, shards,
			func(rank int, g [][]float32, at netsim.Time) {
				if rank == 0 {
					gathered = g
				}
			},
			func(rank int, err error) { log.Fatalf("rank %d: %v", rank, err) })
		if err != nil {
			log.Fatal(err)
		}
		sim.RunUntil(30 * netsim.Second)
		if gathered == nil {
			log.Fatal("gather did not complete")
		}

		rebuilt := make([]float32, 0, len(params))
		for _, s := range gathered {
			rebuilt = append(rebuilt, s...)
		}
		model.SetParams(rebuilt[:len(params)])
		top1, top5 := ml.Evaluate(model, test, 256)
		trimFrac := workers[0].AggStats.TrimFraction()
		fmt.Printf("switch buffer %7dB: coord-trim %5.1f%%  top1 %.4f (Δ%+.4f)  top5 %.4f\n",
			buffer, 100*trimFrac, top1, top1-base1, top5)
		model.SetParams(params)
	}
}
