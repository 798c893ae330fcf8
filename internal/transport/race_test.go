package transport

import (
	"sync"
	"testing"

	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/vecmath"
)

// TestConcurrentStacksRace runs many independent simulated fabrics at
// once, each exercising the full send/ack/NACK machinery of both
// protocols. The simulator is single-threaded by design, so the only
// legal sharing between these goroutines is read-only; run under -race
// this fails loudly if any hidden package-level mutable state sneaks into
// the send or ack paths. Each run must also produce the same result as
// every other (same seed), catching cross-goroutine nondeterminism.
func TestConcurrentStacksRace(t *testing.T) {
	type outcome struct {
		nmse      float64
		delivered int
	}
	run := func(trim bool) (outcome, error) {
		var q netsim.QueueConfig
		if trim {
			q = netsim.QueueConfig{CapacityBytes: 10000, Mode: netsim.TrimOverflow, HighCapacityBytes: 1 << 20}
		} else {
			q = netsim.QueueConfig{CapacityBytes: 1 << 20}
		}
		sim, a, b := pair(q, fastLink())
		enc, err := core.NewEncoderWith(core.WithConfig(coreConfig()))
		if err != nil {
			return outcome{}, err
		}
		grad := gaussianGrad(11, 1<<12)
		msg, err := enc.Encode(1, 1, grad)
		if err != nil {
			return outcome{}, err
		}
		dec, err := core.NewDecoderWith(1, core.WithConfig(coreConfig()))
		if err != nil {
			return outcome{}, err
		}
		b.Receiver = ReceiverFunc(func(_ netsim.NodeID, pl []byte) {
			if err := dec.Handle(pl); err != nil {
				t.Errorf("decoder: %v", err)
			}
		})
		if trim {
			a.SendTrimmable(1, 1, msg.Meta, msg.Data, nil, nil)
		} else {
			payloads := append(append([][]byte{}, msg.Meta...), msg.Data...)
			a.SendReliable(1, 1, payloads, nil, nil)
		}
		sim.Run()
		out, _, err := dec.Reconstruct(len(grad))
		if err != nil {
			return outcome{}, err
		}
		return outcome{nmse: vecmath.NMSE(grad, out), delivered: b.Stats.DataDelivered}, nil
	}

	const goroutines = 8
	var wg sync.WaitGroup
	results := make([]outcome, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = run(g%2 == 0)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	// Same protocol + same seed must mean the same simulated outcome,
	// regardless of what ran next to it.
	for g := 2; g < goroutines; g += 2 {
		if results[g] != results[0] {
			t.Errorf("trim run %d diverged: %+v vs %+v", g, results[g], results[0])
		}
	}
	for g := 3; g < goroutines; g += 2 {
		if results[g] != results[1] {
			t.Errorf("reliable run %d diverged: %+v vs %+v", g, results[g], results[1])
		}
	}
}
