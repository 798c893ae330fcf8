package core

import (
	"bytes"
	"testing"

	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
)

// TestEncodeParallelBitIdentical: parallel encoding must be bit-identical
// to sequential for every scheme (row seeds are order-independent).
func TestEncodeParallelBitIdentical(t *testing.T) {
	grad := gaussianGrad(70, 10_000)
	for _, s := range []quant.Scheme{quant.Sign, quant.SQ, quant.SD, quant.RHT} {
		cfg := testConfig(s, 1)
		enc, err := NewEncoderWith(WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := enc.Encode(5, 9, grad)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 7} {
			par, err := enc.EncodeParallel(5, 9, grad, workers)
			if err != nil {
				t.Fatalf("%v w=%d: %v", s, workers, err)
			}
			if len(par.Meta) != len(seq.Meta) || len(par.Data) != len(seq.Data) {
				t.Fatalf("%v w=%d: packet counts differ", s, workers)
			}
			for i := range seq.Meta {
				if string(par.Meta[i]) != string(seq.Meta[i]) {
					t.Fatalf("%v w=%d: meta %d differs", s, workers, i)
				}
			}
			for i := range seq.Data {
				if string(par.Data[i]) != string(seq.Data[i]) {
					t.Fatalf("%v w=%d: data %d differs", s, workers, i)
				}
			}
		}
	}
}

func TestEncodeParallelEmptyGradient(t *testing.T) {
	enc, _ := NewEncoderWith(WithConfig(testConfig(quant.Sign, 1)))
	if _, err := enc.EncodeParallel(1, 1, nil, 4); err == nil {
		t.Fatal("empty gradient should fail")
	}
}

func TestEncodeParallelDecodes(t *testing.T) {
	cfg := testConfig(quant.RHT, 1)
	enc, _ := NewEncoderWith(WithConfig(cfg))
	grad := gaussianGrad(71, 1<<13)
	msg, err := enc.EncodeParallel(1, 1, grad, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := Receive(msg, nil, len(grad), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedCoords != 0 {
		t.Fatal("unexpected drops")
	}
	for i := range grad {
		if d := out[i] - grad[i]; d > 1e-5 || d < -1e-5 {
			t.Fatalf("decode mismatch at %d", i)
		}
	}
}

func BenchmarkEncodeParallel(b *testing.B) {
	cfg := Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 13}
	enc, _ := NewEncoderWith(WithConfig(cfg))
	grad := gaussianGrad(72, 1<<18)
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "w1", 4: "w4"}[workers], func(b *testing.B) {
			b.SetBytes(int64(len(grad) * 4))
			for i := 0; i < b.N; i++ {
				if _, err := enc.EncodeParallel(1, 1, grad, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEncodePaddedRowScratch pins EncodeParallel's padded-row scratch: the
// row is borrowed from the par arena and must stay the encoder's until the
// row's packets are built. Three encodes of a 200-coordinate gradient
// (one zero-padded 256-coordinate row) must each equal the codec run
// directly on the padded row and packed by wire.PackRow; a scratch handed
// back early is reused by the codec's own scratch and the packets change.
func TestEncodePaddedRowScratch(t *testing.T) {
	grad := gaussianGrad(72, 200)
	row := make([]float32, 256)
	copy(row, grad)
	for _, s := range []quant.Scheme{quant.RHT, quant.SQ} {
		cfg := Config{Params: quant.Params{Scheme: s, P: 1}, RowSize: 256, Flow: 1}
		codec, err := quant.New(cfg.Params)
		if err != nil {
			t.Fatal(err)
		}
		want, err := codec.Encode(row, RowSeed(1, 9, 0))
		if err != nil {
			t.Fatal(err)
		}
		wantMeta, wantData, err := wire.PackRow(cfg.Flow, 9, 0, want)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := NewEncoderWith(WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for it := 0; it < 3; it++ {
			msg, err := enc.Encode(1, 9, grad)
			if err != nil {
				t.Fatal(err)
			}
			if len(msg.Meta) != 1 || !bytes.Equal(msg.Meta[0], wantMeta) {
				t.Fatalf("%v it %d: meta differs", s, it)
			}
			if len(msg.Data) != len(wantData) {
				t.Fatalf("%v it %d: %d data packets, want %d", s, it, len(msg.Data), len(wantData))
			}
			for i := range wantData {
				if !bytes.Equal(msg.Data[i], wantData[i]) {
					t.Fatalf("%v it %d: data %d differs", s, it, i)
				}
			}
		}
	}
}
