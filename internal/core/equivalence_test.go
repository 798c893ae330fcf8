package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
)

// The parallel/serial equivalence matrix: every scheme the codec layer
// implements, crossed with serial, under-, at-, and over-subscribed
// worker counts. Bit-identical packets, gradients, Stats, and obs
// snapshots at every cell is the contract collective/ddp rely on when
// they call the parallel paths unconditionally.
var (
	matrixWorkers = []int{1, 2, 3, 8}
	matrixSchemes = []struct {
		name string
		p    quant.Params
	}{
		{"sign", quant.Params{Scheme: quant.Sign}},
		{"sq", quant.Params{Scheme: quant.SQ}},
		{"sd", quant.Params{Scheme: quant.SD}},
		{"rht", quant.Params{Scheme: quant.RHT}},
		{"linear", quant.Params{Scheme: quant.Linear, P: 8}},
		{"rhtlinear", quant.Params{Scheme: quant.RHTLinear, P: 8}},
		{"eden", quant.Params{Scheme: quant.Eden, P: 2}},
	}
)

func matrixConfig(p quant.Params) Config {
	return Config{Params: p, RowSize: 1 << 10, Flow: 1}
}

// newMatrixEncoder builds an encoder bound to a fresh registry so obs
// emissions can be compared between serial and parallel runs.
func newMatrixEncoder(t *testing.T, cfg Config) (*Encoder, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	enc, err := NewEncoderWith(WithConfig(cfg), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	return enc, reg
}

func snapshotsEqual(t *testing.T, label string, got, want obs.Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Fatalf("%s: obs counters diverge:\n got %+v\nwant %+v", label, got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(got.Histograms, want.Histograms) {
		t.Fatalf("%s: obs histograms diverge:\n got %+v\nwant %+v", label, got.Histograms, want.Histograms)
	}
}

func messagesEqual(t *testing.T, label string, got, want *Message) {
	t.Helper()
	if got.N != want.N || len(got.Meta) != len(want.Meta) || len(got.Data) != len(want.Data) {
		t.Fatalf("%s: shape differs: N %d/%d meta %d/%d data %d/%d",
			label, got.N, want.N, len(got.Meta), len(want.Meta), len(got.Data), len(want.Data))
	}
	for i := range want.Meta {
		if !bytes.Equal(got.Meta[i], want.Meta[i]) {
			t.Fatalf("%s: meta packet %d differs", label, i)
		}
	}
	for i := range want.Data {
		if !bytes.Equal(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: data packet %d differs", label, i)
		}
	}
}

// deliverPackets runs msg's data packets through a deterministic
// trim+drop chain once, returning the exact packet sequence a decoder
// under congestion would see. Building it once (rather than re-running
// the injector per decoder) guarantees serial and parallel decoders
// consume identical bytes.
func deliverPackets(msg *Message) [][]byte {
	inj := chain{NewTrimmer(0.4, 101), newDropper(0.25, 202)}
	var pkts [][]byte
	for _, d := range msg.Data {
		pkt := inj.Apply(append([]byte(nil), d...))
		if pkt != nil {
			pkts = append(pkts, pkt)
		}
	}
	return pkts
}

func feedDecoder(t *testing.T, cfg Config, reg *obs.Registry, msg *Message, pkts [][]byte) *Decoder {
	t.Helper()
	dec, err := NewDecoderWith(msg.ID, WithConfig(cfg), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msg.Meta {
		if err := dec.Handle(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pkts {
		if err := dec.Handle(p); err != nil {
			t.Fatal(err)
		}
	}
	return dec
}

// TestParallelSerialEquivalenceMatrix is the satellite acceptance test:
// for every scheme and every worker count, EncodeParallel's packets and
// DecodeParallel's gradient/Stats/obs output are bit-identical to the
// serial paths, under a congested (trimmed + dropped) delivery.
func TestParallelSerialEquivalenceMatrix(t *testing.T) {
	for _, sc := range matrixSchemes {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := matrixConfig(sc.p)
			// 6.5 rows: odd count exercises padding and worker clamping.
			grad := gaussianGrad(80, 6*cfg.RowSize+cfg.RowSize/2)

			encSer, regSer := newMatrixEncoder(t, cfg)
			want, err := encSer.Encode(9, 3, grad)
			if err != nil {
				t.Fatal(err)
			}
			wantSnap := regSer.Snapshot()

			pkts := deliverPackets(want)
			decReg := obs.New()
			dec := feedDecoder(t, cfg, decReg, want, pkts)
			wantOut, wantStats, err := dec.Reconstruct(len(grad))
			if err != nil {
				t.Fatal(err)
			}
			wantDecSnap := decReg.Snapshot()

			for _, workers := range matrixWorkers {
				encPar, regPar := newMatrixEncoder(t, cfg)
				got, err := encPar.EncodeParallel(9, 3, grad, workers)
				if err != nil {
					t.Fatalf("encode w=%d: %v", workers, err)
				}
				messagesEqual(t, sc.name, got, want)
				snapshotsEqual(t, sc.name+" encode", regPar.Snapshot(), wantSnap)

				gotReg := obs.New()
				gotDec := feedDecoder(t, cfg, gotReg, got, pkts)
				gotOut, gotStats, err := gotDec.DecodeParallel(len(grad), workers)
				if err != nil {
					t.Fatalf("decode w=%d: %v", workers, err)
				}
				if gotStats != wantStats {
					t.Fatalf("w=%d: stats diverge:\n got %+v\nwant %+v", workers, gotStats, wantStats)
				}
				if len(gotOut) != len(wantOut) {
					t.Fatalf("w=%d: output length %d != %d", workers, len(gotOut), len(wantOut))
				}
				for i := range wantOut {
					if math.Float32bits(gotOut[i]) != math.Float32bits(wantOut[i]) {
						t.Fatalf("w=%d: coord %d = %x, want %x", workers, i,
							math.Float32bits(gotOut[i]), math.Float32bits(wantOut[i]))
					}
				}
				snapshotsEqual(t, sc.name+" decode", gotReg.Snapshot(), wantDecSnap)
			}
		})
	}
}

// TestDecodeParallelRepeatIdempotent: repeated reconstruction (parallel
// or serial, interleaved) must not double-count stats or obs — the same
// guarantee Reconstruct gives via the emitted high-water mark.
func TestDecodeParallelRepeatIdempotent(t *testing.T) {
	cfg := matrixConfig(quant.Params{Scheme: quant.RHT})
	enc, _ := newMatrixEncoder(t, cfg)
	grad := gaussianGrad(81, 4*cfg.RowSize)
	msg, err := enc.Encode(1, 1, grad)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	dec := feedDecoder(t, cfg, reg, msg, deliverPackets(msg))

	_, stats1, err := dec.DecodeParallel(len(grad), 4)
	if err != nil {
		t.Fatal(err)
	}
	snap1 := reg.Snapshot()
	_, stats2, err := dec.Reconstruct(len(grad))
	if err != nil {
		t.Fatal(err)
	}
	_, stats3, err := dec.DecodeParallel(len(grad), 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats1 != stats2 || stats2 != stats3 {
		t.Fatalf("stats drift across repeats: %+v / %+v / %+v", stats1, stats2, stats3)
	}
	snapshotsEqual(t, "repeat", reg.Snapshot(), snap1)
}

// TestEncodeSteadyStateAllocs pins the serial encoder's steady-state
// allocation budget: with pooled row scratch and in-place packet
// serialization, Encode allocates only what it hands to the caller —
// one buffer per packet (a sign row at RowSize 1024 is 1 meta + 3 data)
// and the packet slice — plus the row's descriptor. Measured ≈ 6.6
// allocs/row (8.0 under -race, where sync.Pool drops Puts at random);
// the bound leaves headroom for that without letting a dropped
// optimization (heap bit-writers, per-call scratch) slip back in. The
// tight bound, skipped under -race, is alloc_guard_test.go's.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	cfg := matrixConfig(quant.Params{Scheme: quant.Sign})
	enc, err := NewEncoderWith(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	const nRows = 16
	grad := gaussianGrad(82, nRows*cfg.RowSize)
	// Warm the scratch pools so the run measures steady state.
	if _, err := enc.Encode(1, 1, grad); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := enc.Encode(1, 1, grad); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := avg / nRows; perRow > 10 {
		t.Fatalf("Encode allocates %.1f allocs/row (%.0f total), want ≤ 10 — scratch reuse regressed", perRow, avg)
	}
}

// TestDecodeSteadyStateAllocs pins Reconstruct's budget the same way: the
// packets were decoded into their rows as they arrived, so what is left
// allocates the output buffer and a constant per message (the per-row
// results, two closures) — 4 measured — whatever the number of rows.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	cfg := matrixConfig(quant.Params{Scheme: quant.Sign})
	enc, err := NewEncoderWith(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, nRows := range []int{16, 64} {
		grad := gaussianGrad(83, nRows*cfg.RowSize)
		msg, err := enc.Encode(1, 1, grad)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoderWith(1, WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, pkt := range append(msg.Meta, msg.Data...) {
			if err := dec.Handle(pkt); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, _, err := dec.Reconstruct(len(grad)); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 6 {
			t.Fatalf("Reconstruct of %d rows allocates %.0f times, want ≤ 6 at any row count", nRows, avg)
		}
	}
}
