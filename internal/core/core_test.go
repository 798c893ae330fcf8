package core

import (
	"math"
	"testing"

	"trimgrad/internal/quant"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

func gaussianGrad(seed uint64, n int) []float32 {
	r := xrand.New(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64() * 0.05)
	}
	return v
}

func testConfig(s quant.Scheme, p int) Config {
	return Config{
		Params:  quant.Params{Scheme: s, P: p},
		RowSize: 1 << 10, // small rows keep tests fast
		Flow:    1,
	}
}

// chain applies injectors in order, stopping at a drop.
type chain []Injector

func (c chain) Apply(pkt []byte) []byte {
	for _, inj := range c {
		if pkt = inj.Apply(pkt); pkt == nil {
			return nil
		}
	}
	return pkt
}

// dropper drops each packet independently with probability rate: a
// conventional lossy network.
type dropper struct {
	rate float64
	rng  *xrand.Rand
}

func newDropper(rate float64, seed uint64) *dropper {
	return &dropper{rate: rate, rng: xrand.New(seed)}
}

func (d *dropper) Apply(pkt []byte) []byte {
	if d.rng.Float64() < d.rate {
		return nil
	}
	return pkt
}

// transfer pushes a message through inj into a fresh decoder and
// reconstructs.
func transfer(t *testing.T, cfg Config, msg *Message, inj Injector) ([]float32, Stats) {
	t.Helper()
	out, stats, err := Receive(msg, inj, msg.N, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

func TestEncodeDecodeNoCongestion(t *testing.T) {
	for _, s := range []quant.Scheme{quant.Sign, quant.SQ, quant.SD, quant.RHT} {
		cfg := testConfig(s, 1)
		enc, err := NewEncoderWith(WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		// Non-multiple of RowSize to exercise padding.
		grad := gaussianGrad(uint64(s)+1, 2500)
		msg, err := enc.Encode(3, 7, grad)
		if err != nil {
			t.Fatal(err)
		}
		out, stats := transfer(t, cfg, msg, nil)
		if len(out) != len(grad) {
			t.Fatalf("%v: length %d != %d", s, len(out), len(grad))
		}
		if nm := vecmath.NMSE(grad, out); nm > 1e-8 {
			t.Errorf("%v: NMSE %g with no congestion", s, nm)
		}
		if stats.TrimmedPackets != 0 || stats.TrimFraction() != 0 {
			t.Errorf("%v: phantom trimming: %+v", s, stats)
		}
		if stats.Packets != stats.ExpectedPackets {
			t.Errorf("%v: phantom drops: %+v", s, stats)
		}
	}
}

func TestEncoderValidation(t *testing.T) {
	if _, err := NewEncoderWith(WithConfig(Config{Params: quant.Params{Scheme: quant.Sign}, RowSize: 100})); err == nil {
		t.Error("non-pow2 RowSize should fail")
	}
	if _, err := NewEncoderWith(WithConfig(Config{Params: quant.Params{Scheme: quant.Scheme(99)}})); err == nil {
		t.Error("bad scheme should fail")
	}
	enc, _ := NewEncoderWith(WithConfig(testConfig(quant.Sign, 1)))
	if _, err := enc.Encode(1, 1, nil); err == nil {
		t.Error("empty gradient should fail")
	}
}

func TestDefaultRowSize(t *testing.T) {
	enc, err := NewEncoderWith(WithConfig(Config{Params: quant.Params{Scheme: quant.Sign}}))
	if err != nil {
		t.Fatal(err)
	}
	grad := gaussianGrad(1, 100)
	msg, err := enc.Encode(1, 1, grad)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Meta) != 1 {
		t.Errorf("rows = %d, want 1 (padded into one 2^15 row)", len(msg.Meta))
	}
}

func TestTrimmedDelivery(t *testing.T) {
	cfg := testConfig(quant.RHT, 1)
	enc, _ := NewEncoderWith(WithConfig(cfg))
	grad := gaussianGrad(2, 1<<12)
	msg, _ := enc.Encode(1, 1, grad)

	out, stats := transfer(t, cfg, msg, NewTrimmer(1.0, 42))
	if stats.TrimmedPackets != stats.Packets {
		t.Errorf("all packets should be trimmed: %+v", stats)
	}
	if f := stats.TrimFraction(); f != 1 {
		t.Errorf("trim fraction = %v, want 1", f)
	}
	cos := vecmath.CosineSimilarity(grad, out)
	if cos < 0.7 {
		t.Errorf("fully trimmed RHT cosine = %v", cos)
	}
}

func TestPartialTrimRateMatches(t *testing.T) {
	cfg := testConfig(quant.Sign, 1)
	enc, _ := NewEncoderWith(WithConfig(cfg))
	grad := gaussianGrad(3, 1<<15) // many packets for a stable rate
	msg, _ := enc.Encode(1, 1, grad)
	const rate = 0.3
	_, stats := transfer(t, cfg, msg, NewTrimmer(rate, 7))
	got := float64(stats.TrimmedPackets) / float64(stats.Packets)
	if math.Abs(got-rate) > 0.1 {
		t.Errorf("observed trim rate %v, want ≈%v (packets=%d)", got, rate, stats.Packets)
	}
	if stats.TrimFraction() == 0 || stats.TrimFraction() == 1 {
		t.Errorf("coordinate trim fraction %v should be partial", stats.TrimFraction())
	}
}

func TestDroppedDelivery(t *testing.T) {
	cfg := testConfig(quant.SQ, 1)
	enc, _ := NewEncoderWith(WithConfig(cfg))
	grad := gaussianGrad(4, 1<<14)
	msg, _ := enc.Encode(1, 1, grad)
	out, stats := transfer(t, cfg, msg, newDropper(0.5, 9))
	if stats.Packets == stats.ExpectedPackets {
		t.Fatalf("expected drops: %+v", stats)
	}
	if stats.DroppedCoords == 0 {
		t.Error("expected dropped coordinates")
	}
	if len(out) != len(grad) {
		t.Fatal("length mismatch")
	}
}

func TestDecoderRejectsForeignMessage(t *testing.T) {
	cfg := testConfig(quant.Sign, 1)
	enc, _ := NewEncoderWith(WithConfig(cfg))
	grad := gaussianGrad(5, 100)
	msg, _ := enc.Encode(1, 42, grad)
	dec, _ := NewDecoderWith(7, WithConfig(cfg))
	if err := dec.Handle(msg.Meta[0]); err == nil {
		t.Error("foreign message should be rejected")
	}
}

func TestReconstructValidation(t *testing.T) {
	cfg := testConfig(quant.Sign, 1)
	dec, _ := NewDecoderWith(1, WithConfig(cfg))
	if _, _, err := dec.Reconstruct(0); err == nil {
		t.Error("non-positive n should fail")
	}
	// A decoder that saw nothing reconstructs zeros (all rows missing).
	out, stats, err := dec.Reconstruct(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatal("missing rows should decode to zero")
		}
	}
	if stats.DroppedCoords == 0 {
		t.Error("missing rows should count as dropped coords")
	}
}

func TestMessageByteAccounting(t *testing.T) {
	cfg := testConfig(quant.Sign, 1)
	enc, _ := NewEncoderWith(WithConfig(cfg))
	grad := gaussianGrad(6, 1<<12)
	msg, _ := enc.Encode(1, 1, grad)
	if msg.DataBytes() <= 0 {
		t.Error("DataBytes should be positive")
	}
	// Sanity: data bytes ≈ 4 bytes per (padded) coordinate plus headers.
	padded := 1 << 12
	if msg.DataBytes() < padded*4 {
		t.Errorf("DataBytes %d below raw payload %d", msg.DataBytes(), padded*4)
	}
}

func TestRowSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for e := uint64(0); e < 3; e++ {
		for m := uint32(0); m < 3; m++ {
			for r := uint32(0); r < 3; r++ {
				s := RowSeed(e, m, r)
				if seen[s] {
					t.Fatalf("seed collision at (%d,%d,%d)", e, m, r)
				}
				seen[s] = true
			}
		}
	}
}

func TestChainInjector(t *testing.T) {
	cfg := testConfig(quant.Sign, 1)
	enc, _ := NewEncoderWith(WithConfig(cfg))
	grad := gaussianGrad(7, 1<<13)
	msg, _ := enc.Encode(1, 1, grad)
	inj := chain{NewTrimmer(0.5, 1), newDropper(0.5, 2)}
	_, stats := transfer(t, cfg, msg, inj)
	if stats.Packets == stats.ExpectedPackets || stats.TrimmedPackets == 0 {
		t.Errorf("chain should trim and drop: %+v", stats)
	}
}
