package collective

import (
	"hash/fnv"
	"math"
	"testing"

	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

// TestFailedRoundDropsDecoders: a decoder references every payload it
// admitted, so one that outlives its operation pins whole messages. A round
// that a dead peer fails must leave no decoder on any worker — not the
// server's sum decoder waiting for a client that never sends, not a ring
// neighbour's for a message cut off half delivered, not one made for what
// still arrives after the failure — and the same workers, the link restored,
// must then run a round to the bits of a run that was never disturbed.
func TestFailedRoundDropsDecoders(t *testing.T) {
	const n = 3
	grads := make([][]float32, n)
	for i := range grads {
		grads[i] = gaussianGrad(uint64(i)+61, 4096)
	}
	build := func() (*netsim.Sim, *netsim.Topology, []*Worker) {
		sim := netsim.NewSim()
		star := netsim.NewStar(sim, n, fast(), deepQ())
		ws := make([]*Worker, n)
		for i := range ws {
			st := newStack(star.Hosts[i], transport.Config{RTO: 100 * netsim.Microsecond, MaxRetries: 8})
			w, err := New(i, st, WithConfig(coreCfg(quant.RHT)), WithMode(Trimmable))
			if err != nil {
				t.Fatal(err)
			}
			w.Deadline = 20 * netsim.Millisecond
			ws[i] = w
		}
		return sim, star, ws
	}
	// round runs one all-reduce to quiescence and returns a digest of the
	// averages (0 for a rank that did not complete) and the ranks that erred.
	round := func(sim *netsim.Sim, alg Algorithm, ws []*Worker, baseMsg uint32) (digest [n]uint64, erred int) {
		err := AllReduce(alg, 1, baseMsg, ws, grads,
			func(rank int, avg []float32, _ netsim.Time) {
				h := fnv.New64a()
				for _, v := range avg {
					b := math.Float32bits(v)
					h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
				}
				digest[rank] = h.Sum64()
			},
			func(int, error) { erred++ })
		if err != nil {
			t.Fatal(err)
		}
		sim.RunUntil(sim.Now() + netsim.Second)
		return digest, erred
	}
	for _, tc := range []struct {
		alg Algorithm
		cut netsim.Time // when rank 2's link goes down, for good
	}{
		{AlgParamServer, 0},
		{AlgRing, 4 * netsim.Microsecond}, // first packets delivered, no message complete
	} {
		alg := tc.alg
		t.Run(alg.String(), func(t *testing.T) {
			sim, _, ws := build()
			want, erred := round(sim, alg, ws, 1000)
			if erred != 0 {
				t.Fatalf("undisturbed round: %d ranks failed", erred)
			}

			sim, star, ws := build()
			if down := func() { star.Net.SetLinkDown(2, netsim.SwitchIDBase, true) }; tc.cut == 0 {
				down() // before anything is queued on it
			} else {
				sim.At(tc.cut, down)
			}
			if _, erred := round(sim, alg, ws, 100); erred != n {
				t.Fatalf("%d of %d ranks reported the dead peer", erred, n)
			}
			for _, w := range ws {
				if len(w.decs) != 0 || len(w.sums) != 0 {
					t.Errorf("rank %d keeps %d decoders and %d sum decoders after the failed round", w.Rank, len(w.decs), len(w.sums))
				}
			}
			star.Net.SetLinkDown(2, netsim.SwitchIDBase, false)
			if got, erred := round(sim, alg, ws, 1000); erred != 0 || got != want {
				t.Errorf("round after the failure: %d ranks failed, digests %x, undisturbed %x", erred, got, want)
			}
		})
	}
}

// TestReconstructErrorDropsDecoder: a decode that fails releases its decoder
// like one that succeeds.
func TestReconstructErrorDropsDecoder(t *testing.T) {
	sim := netsim.NewSim()
	star := netsim.NewStar(sim, 2, fast(), deepQ())
	w, err := New(0, newStack(star.Hosts[0], transport.Config{}), WithConfig(coreCfg(quant.RHT)))
	if err != nil {
		t.Fatal(err)
	}
	w.onComplete = func(netsim.NodeID, uint32, netsim.Time) {} // an operation is in progress
	if err := w.registerSum(8, 1); err != nil {
		t.Fatal(err)
	}
	for _, msg := range []uint32{7, 8} {
		m, err := w.enc.Encode(1, msg, gaussianGrad(71, 1024))
		if err != nil {
			t.Fatal(err)
		}
		for _, pkt := range append(m.Meta, m.Data...) {
			w.handlePayload(1, pkt)
		}
	}
	if len(w.decs) != 1 || len(w.sums) != 1 {
		t.Fatalf("%d decoders and %d sum decoders after two messages, want 1 and 1", len(w.decs), len(w.sums))
	}
	if _, err := w.reconstruct(1, 7, 0); err == nil {
		t.Error("reconstruct of a zero-length gradient succeeded")
	}
	if _, err := w.reconstructSum(8, 0); err == nil {
		t.Error("reconstructSum of a zero-length gradient succeeded")
	}
	if len(w.decs) != 0 || len(w.sums) != 0 {
		t.Errorf("%d decoders and %d sum decoders survive their failed decodes", len(w.decs), len(w.sums))
	}
}
