package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"trimgrad/internal/quant"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

// Property: decode(encode(x) trimmed to k bytes) is a graceful-degradation
// curve — the reconstruction error is bounded, non-increasing as k grows,
// and (near-)exact when nothing is trimmed. This is the paper's central
// claim about the head/tail layout: every extra surviving byte can only
// help.

// trimRoundTripNMSE encodes row, trims every data packet so that frac of
// its tail region survives, reassembles, and returns the decode NMSE.
func trimRoundTripNMSE(t *testing.T, c quant.Codec, row []float32, seed uint64, frac float64) float64 {
	t.Helper()
	enc, err := c.Encode(row, seed)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	meta, data, err := PackRow(1, 1, 0, enc)
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	asm := NewRowAssembler()
	mp, err := ParseMetaPacket(meta)
	if err != nil {
		t.Fatalf("parse meta: %v", err)
	}
	if err := asm.AddMeta(mp); err != nil {
		t.Fatalf("add meta: %v", err)
	}
	for _, buf := range data {
		h, err := ParseHeader(buf)
		if err != nil {
			t.Fatalf("parse header: %v", err)
		}
		target := HeaderSize + h.HeadBytes() + int(frac*float64(h.TailBytes())+0.5)
		dp, err := ParseDataPacket(Trim(buf, target))
		if err != nil {
			t.Fatalf("parse trimmed(frac=%g): %v", frac, err)
		}
		if err := asm.AddData(dp); err != nil {
			t.Fatalf("add data: %v", err)
		}
	}
	encRow, headAvail, tailAvail, err := asm.Assemble()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	dec, err := c.Decode(encRow, headAvail, tailAvail)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return vecmath.NMSE(row, dec)
}

// TestQuickTrimBytesMonotone drives the property with random rows across
// schemes: NMSE(frac) must be non-increasing (within float tolerance) as
// the surviving tail fraction grows, bounded at the head-only end, and
// near-exact untrimmed.
func TestQuickTrimBytesMonotone(t *testing.T) {
	fracs := []float64{0, 0.125, 0.25, 0.5, 0.75, 1}
	for _, p := range []quant.Params{
		{Scheme: quant.RHT},
		{Scheme: quant.SQ},
		{Scheme: quant.Linear, P: 6},
	} {
		c := quant.MustNew(p)
		f := func(seed uint64) bool {
			row := make([]float32, 256)
			r := xrand.New(seed)
			for i := range row {
				row[i] = float32(r.NormFloat64() * 0.1)
			}
			// The head-only point can exceed 1 for scalar codecs (a coarse
			// quantized estimate may overshoot); only monotonicity from the
			// first measured point is universal.
			prev := math.Inf(1)
			for _, frac := range fracs {
				nm := trimRoundTripNMSE(t, c, row, seed, frac)
				if nm > prev*1.0001+1e-9 {
					t.Logf("%s seed %d: NMSE rose from %g to %g at frac %g",
						c.Name(), seed, prev, nm, frac)
					return false
				}
				prev = nm
			}
			// Untrimmed decode must be (near-)exact.
			return prev < 1e-8
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

// TestTrimBytesHeadOnlyBounded pins the worst case: with every tail
// trimmed away, the head-only estimate must still beat the zero estimate
// (NMSE < 1) — trimming compresses the gradient, it does not destroy it.
func TestTrimBytesHeadOnlyBounded(t *testing.T) {
	c := quant.MustNew(quant.Params{Scheme: quant.RHT})
	for seed := uint64(1); seed <= 10; seed++ {
		row := make([]float32, 512)
		r := xrand.New(seed)
		for i := range row {
			row[i] = float32(r.NormFloat64())
		}
		if nm := trimRoundTripNMSE(t, c, row, seed, 0); nm >= 1 {
			t.Errorf("seed %d: head-only NMSE %g not better than sending nothing", seed, nm)
		}
	}
}

// TestTrimCopyMatchesTrim pins Trim as a prefix, for data and aggregate
// packets at head-boundary, multi-level and no-op targets: Trim returns the
// first TrimKeep bytes of the very buffer it is given and writes nothing,
// so the buffer still equals an untouched copy; a second level matches one
// trim to the same target; buffers with nothing to cut (metadata, foreign
// bytes, targets at or above the length) come back whole.
func TestTrimCopyMatchesTrim(t *testing.T) {
	heads, tails := randHeadsTails(9, 200, 1, 31)
	dh := testHeader(200, 1, 31)
	data, err := BuildDataPacket(dh, heads, tails)
	if err != nil {
		t.Fatal(err)
	}
	floats := make([]float32, 64)
	for i := range floats {
		floats[i] = float32(i) * 0.25
	}
	agg, err := BuildAggPacket(Header{Flow: 2, Count: 64}, floats, floats)
	if err != nil {
		t.Fatal(err)
	}
	meta := BuildMetaPacket(Header{Flow: 1}, 1, 10, 1.0)
	foreign := []byte("not a trimgrad packet, just sixty-odd bytes of somebody else's traffic")
	boundary := HeaderSize + dh.HeadBytes()

	cases := []struct {
		name   string
		buf    []byte
		target int
		cut    bool
	}{
		{"data/head-boundary", data, 0, true},
		{"data/below-header", data, HeaderSize - 5, true},
		{"data/at-boundary", data, boundary, true},
		{"data/multi-level", data, boundary + 100, true},
		{"data/one-tail", data, boundary + 4, true},
		{"data/just-short", data, len(data) - 1, true},
		{"data/at-length", data, len(data), false},
		{"data/beyond", data, 1 << 20, false},
		{"agg/head-boundary", agg, 0, true},
		{"agg/mid-sum", agg, HeaderSize + 4*64 + 10, true},
		{"agg/beyond", agg, len(agg) + 1, false},
		{"meta", meta, 0, false},
		{"foreign", foreign, 0, false},
		{"empty", nil, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := bytes.Clone(tc.buf)
			got := Trim(cp, tc.target)
			if boundary, q, ok := TrimGeometry(tc.buf); ok {
				if n := TrimKeep(len(tc.buf), tc.target, boundary, q); n != len(got) {
					t.Fatalf("TrimKeep = %d, Trim kept %d", n, len(got))
				}
			}
			if cut := len(got) < len(tc.buf); cut != tc.cut {
				t.Fatalf("cut = %v, want %v", cut, tc.cut)
			}
			if len(got) > 0 && &got[0] != &cp[0] {
				t.Fatal("Trim returned another buffer than the one it was given")
			}
			if !bytes.Equal(cp, tc.buf) {
				t.Fatal("Trim wrote the buffer")
			}
			if !tc.cut {
				return
			}
			if h, err := ParseHeader(got); err != nil || !h.IsCut(len(got)) {
				t.Fatalf("the kept prefix does not read as cut: %v", err)
			}
			if again := Trim(got, 0); !bytes.Equal(again, Trim(tc.buf, 0)) {
				t.Fatal("a second-level trim differs from one trim to the same target")
			}
		})
	}
}
