package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"trimgrad/internal/fwht"
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

// BenchmarkEncodeParallel encodes codec_exchange's gradient, 2^20 floats in
// 2^13-coordinate rows, under each scheme that workload cycles, on every
// core.
func BenchmarkEncodeParallel(b *testing.B) {
	grad := gaussianGrad(72, 1<<20)
	for _, s := range []quant.Scheme{quant.Sign, quant.SQ, quant.SD, quant.RHT} {
		enc, err := NewEncoderWith(WithConfig(Config{Params: quant.Params{Scheme: s}, RowSize: 1 << 13}))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(grad) * 4))
			for i := 0; i < b.N; i++ {
				if _, err := enc.EncodeParallel(1, uint32(i), grad, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEncodePaddedRowScratch pins what EncodeParallel hands back and what it
// leaves alone, for every scheme at both tail widths, a whole and a ragged
// gradient and one and two workers. Every Meta and Data packet must equal the
// codec run directly on the zero-padded row and packed by wire.PackRow; three
// encodes in a row catch a padded-row scratch handed back to the par arena
// before its row's packets are built (the codec's own scratch reuses it and
// the packets change; 200 coordinates make the one row a ragged one). The caller's gradient must come back bit for bit, every
// data packet must be capped (len == cap), and an append to one packet must
// leave every other packet of the message as it was.
func TestEncodePaddedRowScratch(t *testing.T) {
	const rowSize = 256
	schemes := []quant.Params{
		{Scheme: quant.Sign}, {Scheme: quant.SQ}, {Scheme: quant.SD}, {Scheme: quant.RHT},
		{Scheme: quant.Linear, P: 4}, {Scheme: quant.RHTLinear, P: 8}, {Scheme: quant.Eden, P: 2},
	}
	for _, base := range schemes {
		for _, tailBits := range []int{0, 12} {
			for _, n := range []int{200, 3 * rowSize, 712} {
				params := base
				params.TailBits = tailBits
				cfg := Config{Params: params, RowSize: rowSize, Flow: 1}
				grad := gaussianGrad(72, n)
				wantMeta, wantData := packPaddedRows(t, cfg, 1, 9, grad)
				enc, err := NewEncoderWith(WithConfig(cfg))
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2} {
					name := fmt.Sprintf("%v/P=%d/tail=%d/n=%d/w=%d", params.Scheme, params.P, tailBits, n, workers)
					for it := 0; it < 3; it++ {
						before := slices.Clone(grad)
						msg, err := enc.EncodeParallel(1, 9, grad, workers)
						if err != nil {
							t.Fatalf("%s it %d: %v", name, it, err)
						}
						for i := range grad {
							if math.Float32bits(grad[i]) != math.Float32bits(before[i]) {
								t.Fatalf("%s it %d: gradient coordinate %d modified", name, it, i)
							}
						}
						checkPackets(t, fmt.Sprintf("%s it %d", name, it), msg, wantMeta, wantData)
						for i, pkt := range msg.Data {
							if len(pkt) != cap(pkt) {
								t.Fatalf("%s it %d: data %d has len %d, cap %d", name, it, i, len(pkt), cap(pkt))
							}
							_ = append(pkt, 0xa5, 0x5a, 0xa5, 0x5a)
						}
						checkPackets(t, fmt.Sprintf("%s it %d after appends", name, it), msg, wantMeta, wantData)
					}
				}
			}
		}
	}
}

// packPaddedRows is EncodeParallel's reference: grad split into zero-padded
// rows, each encoded by a fresh codec and packed by wire.PackRow.
func packPaddedRows(t *testing.T, cfg Config, epoch uint64, msgID uint32, grad []float32) (metas, datas [][]byte) {
	t.Helper()
	codec, err := quant.New(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	for r, row := range fwht.SplitRows(grad, cfg.RowSize) {
		enc, err := codec.Encode(row, RowSeed(epoch, msgID, uint32(r)))
		if err != nil {
			t.Fatal(err)
		}
		meta, data, err := wire.PackRow(cfg.Flow, msgID, uint32(r), enc)
		if err != nil {
			t.Fatal(err)
		}
		metas, datas = append(metas, meta), append(datas, data...)
	}
	return metas, datas
}

// checkPackets fails unless msg's packets are exactly wantMeta and wantData.
func checkPackets(t *testing.T, name string, msg *Message, wantMeta, wantData [][]byte) {
	t.Helper()
	if len(msg.Meta) != len(wantMeta) || len(msg.Data) != len(wantData) {
		t.Fatalf("%s: %d meta + %d data packets, want %d + %d", name, len(msg.Meta), len(msg.Data), len(wantMeta), len(wantData))
	}
	for i := range wantMeta {
		if !bytes.Equal(msg.Meta[i], wantMeta[i]) {
			t.Fatalf("%s: meta %d differs", name, i)
		}
	}
	for i := range wantData {
		if !bytes.Equal(msg.Data[i], wantData[i]) {
			t.Fatalf("%s: data %d differs", name, i)
		}
	}
}
