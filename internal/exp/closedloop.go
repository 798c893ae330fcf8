package exp

import (
	"io"

	"trimgrad/internal/collective"
	"trimgrad/internal/ddp"
	"trimgrad/internal/ml"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
)

// runClosedLoop is the §5.1 "full-scale simulation" the paper defers to
// future work: training where the trim fraction *emerges* from queue
// dynamics instead of being injected, and communication time is measured
// from the fabric simulator. Three fabrics are compared at identical
// hyper-parameters:
//
//   - deep buffers (no congestion) — the reference;
//   - shallow buffers + trimming switches + trim-aware transport;
//   - shallow buffers + drop-tail switches + reliable transport.
func runClosedLoop(w io.Writer, o Options) error {
	dcfg := ml.SyntheticConfig{
		Classes: 30, Dim: 32, Train: 3000, Test: 800,
		Noise: 2.4, Spread: 2.0, Seed: 42 + o.Seed,
	}
	epochs := 6
	workers := 4
	if o.Quick {
		dcfg.Train, dcfg.Test = 1000, 300
		epochs = 2
	}
	train, test := ml.Synthetic(dcfg)

	type fabric struct {
		name string
		fc   ddp.FabricConfig
	}
	link := netsim.LinkConfig{Bandwidth: netsim.Mbps(500), Delay: 5 * netsim.Microsecond}
	fabrics := []fabric{
		{"deep-buffer", ddp.FabricConfig{
			Link:  link,
			Queue: netsim.QueueConfig{CapacityBytes: 8 << 20, Mode: netsim.TrimOverflow},
			Mode:  collective.Trimmable,
		}},
		{"shallow+trim", ddp.FabricConfig{
			Link: link,
			Queue: netsim.QueueConfig{
				CapacityBytes: 8 << 10, HighCapacityBytes: 1 << 20,
				Mode: netsim.TrimOverflow,
			},
			Mode: collective.Trimmable,
		}},
		{"shallow+drop", ddp.FabricConfig{
			Link: link,
			Queue: netsim.QueueConfig{
				CapacityBytes: 8 << 10, HighCapacityBytes: 1 << 20,
				Mode: netsim.DropTail,
			},
			Mode:         collective.Reliable,
			RoundTimeout: 30 * netsim.Second,
		}},
	}

	t := NewTable("§5.1 — Closed-loop training on a live fabric",
		"fabric", "emergent_trim", "wall_s", "final_top1", "status")
	for _, f := range fabrics {
		// Communication-bound regime (the paper's setting): compute is a
		// few ms per round, so the measured fabric time dominates wall
		// clock and the drop-vs-trim contrast is visible.
		cost := ddp.DefaultCostModel()
		cost.Compute = 0.004
		cost.Comm = 0.002
		nt, err := ddp.NewNetTrainer(train, test, ddp.WithConfig(ddp.Config{
			Workers: workers, Epochs: epochs, Seed: 1 + o.Seed,
			RowSize: 1 << 11, LR: 0.05, Cost: cost,
			Scheme: &quant.Params{Scheme: quant.RHT},
		}), ddp.WithFabric(f.fc), ddp.WithHidden(128))
		if err != nil {
			return err
		}
		res, err := nt.Run()
		status := "ok"
		trim := 0.0
		top1 := 0.0
		wall := 0.0
		if err != nil {
			status = "failed: " + err.Error()
		} else {
			if res.Diverged {
				status = "diverged"
			}
			if len(res.Points) > 0 {
				trim = res.Points[len(res.Points)-1].TrimFrac
			}
			top1 = res.FinalTop1
			wall = res.WallTotal
		}
		t.Add(f.name, trim, wall, top1, status)
	}
	return emit(w, o, t)
}

func init() {
	register(Runner{"closedloop", "closed-loop training on live fabric, §5.1 future work", runClosedLoop})
}
