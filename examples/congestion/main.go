// Congestion example: the paper's motivating scenario. N senders incast
// gradient messages into one receiver through a shallow-buffer switch
// while bursty cross traffic shares the fabric. Runs the same workload
// under (a) conventional drop + reliable retransmission and (b) packet
// trimming + trim-aware transport, and prints the straggler comparison.
package main

import (
	"fmt"
	"log"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/scenario"
)

const nSenders = 8

func run(mode netsim.QueueMode, label string) {
	s := scenario.Scenario{
		// Hosts 0..7 send, the last host receives ("incast").
		Fabric: netsim.FabricSpec{
			Kind: "star", N: nSenders + 1,
			Link:  netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond},
			Queue: netsim.QueueConfig{CapacityBytes: 64 << 10, HighCapacityBytes: 512 << 10, Mode: mode},
		},
		Workload: "incast", WorkloadSeed: 9,
		Dim: 1 << 15, GradSeed: 1,
		Codec:    core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 13},
		Reliable: mode == netsim.DropTail,
		// Bursty cross traffic beside every flow, ~40% of the bottleneck
		// link in all: 3.3e5 MTU packets/s into the receiver.
		CrossRate: 3.3e5 / nSenders,
		// The cross traffic never drains, so stop once every flow settles.
		Horizon: 30 * netsim.Second, Slice: netsim.Millisecond,
	}
	res, err := scenario.Run(s, nil)
	if err != nil {
		log.Fatal(err)
	}
	receiver := res.Topo.Hosts[nSenders].ID()
	st := res.Topo.Tier(netsim.TierEdge)[0].Port(receiver).Stats
	fmt.Printf("%-16s completed %d/%d  straggler(max FCT) %-12v p50 %-12v retransmits %-4d trims %-4d drops %d\n",
		label, res.FCT.Count(), len(res.Flows), res.FCT.Max(), res.FCT.Percentile(0.5), res.Retransmits(), st.Trimmed, st.Dropped)
}

func main() {
	fmt.Println("8-way gradient incast + bursty cross traffic through a 64 kB switch buffer")
	run(netsim.DropTail, "drop+retransmit")
	run(netsim.TrimOverflow, "trim+accept")
	fmt.Println("\nTrimming turns straggler retransmission stalls into slight gradient")
	fmt.Println("compression: every flow finishes at line speed (§1, §2 of the paper).")
}
