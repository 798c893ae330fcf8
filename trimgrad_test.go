package trimgrad

import (
	"testing"

	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

// TestPublicAPIRoundTrip drives the facade exactly as the package comment
// advertises.
func TestPublicAPIRoundTrip(t *testing.T) {
	rng := xrand.New(5)
	grad := make([]float32, 5000)
	for i := range grad {
		grad[i] = float32(rng.NormFloat64() * 0.05)
	}
	for _, scheme := range []Scheme{Sign, SQ, SD, RHT} {
		cfg := Config{Params: Params{Scheme: scheme}, RowSize: 1 << 11}
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := enc.Encode(1, 9, grad)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(cfg, 9)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msg.Meta {
			if err := dec.Handle(m); err != nil {
				t.Fatal(err)
			}
		}
		inj := NewTrimmer(0.5, 7)
		for _, d := range msg.Data {
			if err := dec.Handle(inj.Apply(append([]byte(nil), d...))); err != nil {
				t.Fatal(err)
			}
		}
		out, stats, err := dec.Reconstruct(len(grad))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(grad) {
			t.Fatalf("%v: length %d", scheme, len(out))
		}
		if stats.TrimmedPackets == 0 {
			t.Errorf("%v: expected some trimming at 50%%", scheme)
		}
		if cos := vecmath.CosineSimilarity(grad, out); cos < 0.3 {
			t.Errorf("%v: cosine %v", scheme, cos)
		}
	}
}

func TestPublicTrimAndDrop(t *testing.T) {
	cfg := Config{Params: Params{Scheme: RHT}, RowSize: 1 << 10}
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grad := make([]float32, 2048)
	for i := range grad {
		grad[i] = float32(i%7) * 0.01
	}
	msg, err := enc.Encode(1, 1, grad)
	if err != nil {
		t.Fatal(err)
	}
	// Switch-side Trim is exposed directly.
	pkt := append([]byte(nil), msg.Data[0]...)
	trimmed := Trim(pkt, 0)
	if len(trimmed) >= len(msg.Data[0]) {
		t.Error("Trim did not shrink the packet")
	}
	// NewCodec exposes the row-level API.
	c, err := NewCodec(Params{Scheme: SQ})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "sq" {
		t.Errorf("codec name %q", c.Name())
	}
}
