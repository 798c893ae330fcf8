// All-reduce example: 8 simulated hosts on a ring fabric average their
// gradients over congested, trimming trunk links. Each algorithm named on
// the command line (direct|ring|rd|hier|ps; default: direct ring) runs on
// the identical fabric. The default pair is the contrast:
//
//   - direct all-reduce: every gradient crosses the network once, so each
//     coordinate suffers at most one trim-compression;
//   - ring all-reduce: bandwidth-optimal, but every chunk is decoded,
//     accumulated, and re-encoded at each of the 2(N−1) steps, so
//     trim error compounds per hop.
//
// The contrast is why the paper's §3 encoding matters most for one-shot
// paths, and why in-network/homomorphic aggregation (THC, cited in §3.2)
// is attractive for multi-hop collectives.
package main

import (
	"fmt"
	"log"
	"os"

	"trimgrad/internal/collective"
	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

const (
	nWorkers = 8
	dim      = 1 << 17
)

func makeGrads() [][]float32 {
	rng := xrand.New(3)
	grads := make([][]float32, nWorkers)
	for i := range grads {
		g := make([]float32, dim)
		for j := range g {
			g[j] = float32(rng.NormFloat64() * 0.05)
		}
		grads[i] = g
	}
	return grads
}

func run(algorithm string, grads [][]float32, exact []float32) {
	alg, err := collective.ParseAlgorithm(algorithm)
	if err != nil {
		log.Fatal(err)
	}
	sim := netsim.NewSim()
	// Shallow trunk buffers force trimming when steps collide.
	ring := netsim.NewRing(sim, nWorkers,
		netsim.LinkConfig{Bandwidth: netsim.Gbps(10), Delay: 2 * netsim.Microsecond},
		netsim.LinkConfig{Bandwidth: netsim.Gbps(2), Delay: 5 * netsim.Microsecond},
		netsim.QueueConfig{
			CapacityBytes: 16 << 10, HighCapacityBytes: 1 << 20,
			Mode: netsim.TrimOverflow,
		})
	workers, err := collective.Bind(ring.Hosts, transport.Config{}, collective.WithConfig(core.Config{
		Params:  quant.Params{Scheme: quant.RHT},
		RowSize: 1 << 12,
	}), collective.WithMode(collective.Trimmable))
	if err != nil {
		log.Fatal(err)
	}
	outs, err := collective.RunAllReduce(sim, 30*netsim.Second, alg, 1, 100, workers, grads)
	if err != nil {
		log.Fatal(err)
	}

	var worstNMSE, trimFrac float64
	var lastDone netsim.Time
	for rank, o := range outs {
		if o.Avg == nil {
			log.Fatalf("%s: rank %d never finished", algorithm, rank)
		}
		lastDone = max(lastDone, o.At)
		if nm := vecmath.NMSE(exact, o.Avg); nm > worstNMSE {
			worstNMSE = nm
		}
		// Rounded before the add: arm64 would fuse the divide by a power
		// of two, a multiply, with it.
		trimFrac += float64(workers[rank].AggStats.TrimFraction() / nWorkers)
	}
	fmt.Printf("%-7s finished %-12v coord-trim %5.1f%%  worst NMSE vs exact mean %.4f\n",
		algorithm, lastDone, 100*trimFrac, worstNMSE)
}

func main() {
	grads := makeGrads()
	exact := make([]float32, dim)
	for _, g := range grads {
		vecmath.Add(exact, g)
	}
	vecmath.Scale(exact, 1.0/nWorkers)

	fmt.Printf("all-reduce of %d workers × %d coords over a trimming ring fabric\n\n",
		nWorkers, dim)
	algorithms := os.Args[1:]
	if len(algorithms) == 0 {
		algorithms = []string{"direct", "ring"}
	}
	for _, a := range algorithms {
		run(a, grads, exact)
	}
	fmt.Println("\nThe ring pays one decode→re-encode per hop, so trim error compounds")
	fmt.Println("across its 2(N−1) steps; the direct algorithm compresses each")
	fmt.Println("coordinate at most once (cf. THC, cited in §3.2 of the paper).")
}
