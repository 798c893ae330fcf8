package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"trimgrad/internal/quant"
	"trimgrad/internal/xrand"
)

// messagesIdentical verifies two encoded messages are bit-identical on the
// wire — the determinism contract EncodeParallel must uphold no matter how
// goroutines interleave.
func messagesIdentical(a, b *Message) error {
	if a.N != b.N || a.ID != b.ID {
		return fmt.Errorf("shape differs: N %d vs %d, ID %d vs %d", a.N, b.N, a.ID, b.ID)
	}
	if len(a.Meta) != len(b.Meta) || len(a.Data) != len(b.Data) {
		return fmt.Errorf("packet counts differ: meta %d vs %d, data %d vs %d",
			len(a.Meta), len(b.Meta), len(a.Data), len(b.Data))
	}
	for i := range a.Meta {
		if !bytes.Equal(a.Meta[i], b.Meta[i]) {
			return fmt.Errorf("meta packet %d differs", i)
		}
	}
	for i := range a.Data {
		if !bytes.Equal(a.Data[i], b.Data[i]) {
			return fmt.Errorf("data packet %d differs", i)
		}
	}
	return nil
}

// TestEncodeParallelSharedEncoderStress is the race-detector regression
// test for the parallel encoder: many goroutines hammer one shared
// Encoder concurrently, and every result must be bit-identical to the
// serial Encode of the same (epoch, msgID, grad). Run under -race this
// catches both data races and any ordering leak into the output.
func TestEncodeParallelSharedEncoderStress(t *testing.T) {
	cfg := Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 8}
	enc, err := NewEncoderWith(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(99)
	grad := make([]float32, 5*(1<<8)+17) // ragged tail exercises padding
	for i := range grad {
		grad[i] = float32(rng.NormFloat64())
	}

	const messages = 4
	const goroutinesPerMsg = 4
	refs := make([]*Message, messages)
	for i := range refs {
		m, err := enc.Encode(uint64(i), uint32(i+1), grad)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = m
	}

	var wg sync.WaitGroup
	errc := make(chan error, messages*goroutinesPerMsg)
	for i := 0; i < messages; i++ {
		for g := 0; g < goroutinesPerMsg; g++ {
			wg.Add(1)
			go func(i, g int) {
				defer wg.Done()
				// Vary worker counts so work-stealing interleavings differ.
				m, err := enc.EncodeParallel(uint64(i), uint32(i+1), grad, 1+g%3)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d/%d: %v", i, g, err)
					return
				}
				if err := messagesIdentical(refs[i], m); err != nil {
					errc <- fmt.Errorf("goroutine %d/%d: parallel output diverged: %v", i, g, err)
				}
			}(i, g)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
