// Quickstart: encode a gradient with every trimmable scheme, trim the
// packets at a simulated switch, decode, and compare reconstruction
// quality. This is the smallest end-to-end tour of the library.
package main

import (
	"fmt"
	"log"

	"trimgrad/internal/core"
	"trimgrad/internal/quant"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

func main() {
	// A synthetic gradient: 8192 dense, roughly zero-centred coordinates.
	rng := xrand.New(7)
	grad := make([]float32, 8192)
	for i := range grad {
		grad[i] = float32(rng.NormFloat64() * 0.05)
	}

	schemes := []quant.Params{
		{Scheme: quant.Sign},
		{Scheme: quant.SQ},
		{Scheme: quant.SD},
		{Scheme: quant.RHT},
		{Scheme: quant.RHTLinear, P: 8},
		{Scheme: quant.Eden, P: 4},
	}
	fmt.Println("scheme      trim_rate  nmse      cosine")
	for _, p := range schemes {
		for _, rate := range []float64{0, 0.5, 1.0} {
			cfg := core.Config{Params: p, RowSize: 1 << 12}
			enc, err := core.NewEncoderWith(core.WithConfig(cfg))
			if err != nil {
				log.Fatal(err)
			}
			// Encode epoch 1, message 1.
			msg, err := enc.Encode(1, 1, grad)
			if err != nil {
				log.Fatal(err)
			}
			// The "network": each data packet is trimmed with probability
			// rate, exactly as a congested switch would cut it. Metadata
			// packets travel the reliable channel untouched.
			out, stats, err := core.Receive(msg, core.NewTrimmer(rate, 42), len(grad), core.WithConfig(cfg))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s  %.2f       %.5f   %.4f   (%d/%d packets trimmed)\n",
				quant.MustNew(p).Name(), rate,
				vecmath.NMSE(grad, out),
				vecmath.CosineSimilarity(grad, out),
				stats.TrimmedPackets, stats.Packets)
		}
	}
}
