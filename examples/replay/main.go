// Replay example (§5.4): trimmable gradients make every congested run
// unique, so the framework records which packets were trimmed (the "trim
// transcript") and can replay the transcript later to reproduce the run
// bit-for-bit. This example records a short congested training run,
// replays it, and verifies the final model weights are identical.
package main

import (
	"bytes"
	"fmt"
	"log"

	"trimgrad/internal/core"
	"trimgrad/internal/ddp"
	"trimgrad/internal/ml"
	"trimgrad/internal/quant"
)

func main() {
	train, test := ml.Synthetic(ml.SyntheticConfig{
		Classes: 20, Dim: 32, Train: 2000, Test: 500,
		Noise: 0.5, Spread: 1.0, Seed: 5,
	})
	scheme := &quant.Params{Scheme: quant.RHT}

	// Run 1: random congestion (40% trim), recording every packet's fate.
	recorder := core.NewRecorder(core.NewTrimmer(0.4, 1234))
	cfg := ddp.Config{
		Workers: 2, Epochs: 3, Seed: 7, LR: 0.05,
		Scheme: scheme, Injector: recorder,
	}
	t1, err := ddp.NewTrainer(train, test, ddp.WithConfig(cfg), ddp.WithHidden(64))
	if err != nil {
		log.Fatal(err)
	}
	res1, err := t1.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded run : top1 %.4f, %d packet fates captured\n",
		res1.FinalTop1, len(recorder.Transcript.Events))

	// Serialize the transcript as a replay artifact.
	var artifact bytes.Buffer
	if err := recorder.Transcript.Save(&artifact); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transcript   : %d bytes of JSON\n", artifact.Len())

	// Run 2: replay. Same seeds, same data, but the network now applies
	// the recorded fates instead of fresh randomness.
	transcript, err := core.LoadTranscript(&artifact)
	if err != nil {
		log.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Injector = core.NewPlayer(transcript)
	t2, err := ddp.NewTrainer(train, test, ddp.WithConfig(cfg2), ddp.WithHidden(64))
	if err != nil {
		log.Fatal(err)
	}
	res2, err := t2.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed run : top1 %.4f\n", res2.FinalTop1)

	// Verify bit-identical weights.
	w1, w2 := t1.Model().Params(), t2.Model().Params()
	for i := range w1 {
		//trimlint:allow float-equality bit-identical weights are the whole point of replay verification
		if w1[i] != w2[i] {
			log.Fatalf("weights differ at %d: %v vs %v", i, w1[i], w2[i])
		}
	}
	fmt.Printf("verdict      : all %d weights bit-identical — run reproduced\n", len(w1))
}
