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
	"trimgrad/internal/transport"
	"trimgrad/internal/xrand"
)

func run(mode netsim.QueueMode, label string) {
	const (
		nSenders = 8
		dim      = 1 << 15
	)
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, nSenders+2,
		netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 5 * netsim.Microsecond},
		netsim.QueueConfig{
			CapacityBytes: 64 << 10, HighCapacityBytes: 512 << 10, Mode: mode,
		})
	receiver := star.Hosts[nSenders]
	crossSrc := star.Hosts[nSenders+1]

	_, err := transport.New(receiver, transport.WithReceiver(transport.ReceiverFunc(func(netsim.NodeID, []byte) {})))
	if err != nil {
		log.Fatal(err)
	}

	// Bursty cross traffic at ~40% of the bottleneck link.
	cross := netsim.NewCrossTraffic(crossSrc, receiver.ID(), 1500, 3.3e5, 9)
	cross.Start()

	fct := netsim.NewFCTRecorder()
	completed := 0
	retrans := 0
	rng := xrand.New(1)
	stacks := make([]*transport.Stack, nSenders)
	for i := 0; i < nSenders; i++ {
		stacks[i], err = transport.New(star.Hosts[i])
		if err != nil {
			log.Fatal(err)
		}
		enc, err := core.NewEncoderWith(core.WithConfig(core.Config{
			Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 13, Flow: uint32(i),
		}))
		if err != nil {
			log.Fatal(err)
		}
		grad := make([]float32, dim)
		for j := range grad {
			grad[j] = float32(rng.NormFloat64() * 0.05)
		}
		msg, err := enc.Encode(1, uint32(i+1), grad)
		if err != nil {
			log.Fatal(err)
		}
		id := uint64(i + 1)
		fct.FlowStarted(id, 0)
		onDone := func(at netsim.Time) { completed++; fct.FlowFinished(id, at) }
		if mode == netsim.TrimOverflow {
			stacks[i].SendTrimmable(receiver.ID(), uint32(i+1), msg.Meta, msg.Data, onDone, nil)
		} else {
			payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
			stacks[i].SendReliable(receiver.ID(), uint32(i+1), payloads, onDone, nil)
		}
	}
	sim.RunUntil(30 * netsim.Second)
	cross.Stop()
	for _, s := range stacks {
		retrans += s.Stats.Retransmits
	}
	st := star.Tier(netsim.TierEdge)[0].Port(receiver.ID()).Stats
	fmt.Printf("%-16s completed %d/%d  straggler(max FCT) %-12v p50 %-12v retransmits %-4d trims %-4d drops %d\n",
		label, completed, nSenders, fct.Max(), fct.Percentile(0.5), retrans, st.Trimmed, st.Dropped)
}

func main() {
	fmt.Println("8-way gradient incast + bursty cross traffic through a 64 kB switch buffer")
	run(netsim.DropTail, "drop+retransmit")
	run(netsim.TrimOverflow, "trim+accept")
	fmt.Println("\nTrimming turns straggler retransmission stalls into slight gradient")
	fmt.Println("compression: every flow finishes at line speed (§1, §2 of the paper).")
}
