package core

import (
	"testing"

	"trimgrad/internal/quant"
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
	out, stats, errTransfer := func() ([]float32, Stats, error) {
		dec, err := NewDecoderWith(1, WithConfig(cfg))
		if err != nil {
			return nil, Stats{}, err
		}
		for _, m := range msg.Meta {
			if err := dec.Handle(m); err != nil {
				return nil, Stats{}, err
			}
		}
		for _, d := range msg.Data {
			if err := dec.Handle(d); err != nil {
				return nil, Stats{}, err
			}
		}
		return dec.Reconstruct(len(grad))
	}()
	if errTransfer != nil {
		t.Fatal(errTransfer)
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
