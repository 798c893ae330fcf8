package exp

import (
	"fmt"
	"io"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/scenario"
)

// sweepScenario is the run E13 and E14 share: one RHT gradient per flow
// of workload over a mice/elephant background, on a fabric sized for 16
// hosts — a k=4 fat tree's natural size, matched by the star and the 4×4
// leaf–spine so rows compare the fabric, not the scale. The leaf–spine
// runs 4:1 oversubscribed: the configuration where multi-tier queueing
// actually differs from the single-switch star.
func sweepScenario(kind, workload string, q netsim.QueueConfig, dim int, o Options) scenario.Scenario {
	return scenario.Scenario{
		Fabric: netsim.FabricSpec{
			Kind: kind, N: 16, K: 4, Leaves: 4, Spines: 2, HostsPerLeaf: 4, Oversub: 4,
			Link: link10G, Queue: q, ECMPSeed: 31 + o.Seed,
		},
		Workload: workload, WorkloadSeed: 7 + o.Seed, Dim: dim, GradSeed: 80 + o.Seed,
		Codec:    core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 12},
		MiceRate: 2e5, ElephantRate: 5e4, MixSeed: 41 + o.Seed, BackgroundSeed: 43 + o.Seed,
		// The open-loop background never drains the event queue, so the run
		// stops once the last gradient lands.
		Horizon: 10 * netsim.Second, Slice: 10 * netsim.Millisecond,
	}
}

// runFabricSweep is the cross-topology congestion sweep (E13): the same
// gradient incast under the same mice/elephant background load, run over
// star, fat-tree, and oversubscribed leaf–spine fabrics while the buffer
// size dials trim pressure. Trimming should hold the straggler FCT and
// decode error roughly flat across fabrics while drop+RTO degrades with
// depth — the paper's claim that just-in-time compression composes with
// real data-center topologies, not just a single bottleneck queue.
func runFabricSweep(w io.Writer, o Options) error {
	topologies := []string{"star", "fattree", "leafspine"}
	buffers := []int{16 << 10, 48 << 10, 256 << 10}
	dim := 1 << 14
	if o.Quick {
		topologies = []string{"star", "fattree"}
		buffers = []int{48 << 10}
		dim = 1 << 12
	}
	const fan = 8

	t := NewTable("Fabric sweep: topology x buffer x mode under background load (E13)",
		"topology", "buffer_kb", "mode", "completed", "max_fct_ms",
		"trimmed_pkts", "dropped_pkts", "retransmits", "mean_nmse")
	// Each cell: fan senders incast at the last host; the row reports
	// completion, straggler FCT, fabric-wide trim/drop counts, and the
	// mean decode NMSE.
	for _, kind := range topologies {
		for _, buffer := range buffers {
			for _, trimming := range []bool{false, true} {
				q, mode := queueFor(trimming, buffer, 1<<20)
				s := sweepScenario(kind, fmt.Sprintf("incast:%d", fan), q, dim, o)
				s.Reliable, s.Decode = !trimming, true
				res, err := scenario.Run(s, nil)
				if err != nil {
					return fmt.Errorf("exp: fabricsweep %s/%d: %w", kind, buffer, err)
				}
				nmse := "-"
				if mean, decoded := meanNMSE(res); decoded > 0 {
					nmse = fmt.Sprintf("%.2g", mean)
				}
				fabric := netsim.PortTotals(res.Topo.Switches())
				t.Add(kind, buffer>>10, mode, fmt.Sprintf("%d/%d", res.FCT.Count(), fan),
					ms(res.FCT.Max()), fabric.Trimmed, fabric.Dropped, res.Retransmits(), nmse)
			}
		}
	}
	return emit(w, o, t)
}

func init() {
	register(Runner{"fabricsweep", "cross-topology sweep: gradient incast under background load, star vs fat-tree vs leaf-spine (E13)", runFabricSweep})
}
