package quant

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// Every codec's bits are pinned here: the heads, tails and scale Encode
// writes, the reference Decode of the row all-trimmed and under a mixed
// mask, and NativeDecoder.PacketValues over the same row cut into packets.
// The digests in testdata/codec_bits_digests.txt were recorded from the
// branchy per-coordinate encoders and decoders, so a rewrite of a kernel
// (a select for a jump, a table for a loop) must reproduce every one of
// them; a mismatch means an encoded or decoded bit moved.

var updateCodecBits = flag.Bool("update-codec-bits", false,
	"re-record testdata/codec_bits_digests.txt (only from a tree known to be right)")

const codecBitsGolden = "testdata/codec_bits_digests.txt"

// goldenRows are the inputs every codec is run over: a paper-like
// gradient, the all-zero row (L = 0), a row whose outliers sit at ±10σ so
// every clipping codec clips, and a row holding NaN, ±Inf and −0. The
// scalar codecs also take rows of length 1 and 1000, which the rotated
// ones refuse.
func goldenRows() []struct {
	name   string
	row    []float32
	scalar bool
} {
	const n = 1 << 13
	clipped := gaussianRow(61, n, 0.05)
	for i := 0; i < n; i += 97 {
		clipped[i] = float32(math.Copysign(0.5, float64(i%2)-0.5)) // ±10σ
	}
	special := gaussianRow(62, n, 0.05)
	for i, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))} {
		special[17+i*1031] = v
	}
	return []struct {
		name   string
		row    []float32
		scalar bool
	}{
		{"normal", gaussianRow(60, n, 0.05), false},
		{"zero", make([]float32, n), false},
		{"clipped", clipped, false},
		{"special", special, false},
		{"len1", gaussianRow(63, 1, 0.05), true},
		{"len1000", gaussianRow(64, 1000, 0.05), true},
	}
}

// goldenParams lists every scheme: the four 1-bit ones, Linear and
// RHTLinear at P = 2, 4 and 8, and Eden at P = 1 to 4. Then the scale
// rules off their defaults: RHT and Eden P = 2 under ScaleMMSE, and the
// clipping codecs (SQ, SD, Linear and RHTLinear at P = 4) at ClipSigma 1.5.
func goldenParams() []Params {
	ps := []Params{{Scheme: Sign}, {Scheme: SQ}, {Scheme: SD}, {Scheme: RHT}}
	for _, p := range []int{2, 4, 8} {
		ps = append(ps, Params{Scheme: Linear, P: p}, Params{Scheme: RHTLinear, P: p})
	}
	for p := 1; p <= 4; p++ {
		ps = append(ps, Params{Scheme: Eden, P: p})
	}
	ps = append(ps, Params{Scheme: RHT, ScaleMode: ScaleMMSE}, Params{Scheme: Eden, P: 2, ScaleMode: ScaleMMSE})
	for _, s := range []Scheme{SQ, SD, Linear, RHTLinear} {
		p := Params{Scheme: s, ClipSigma: 1.5}
		if s == Linear || s == RHTLinear {
			p.P = 4
		}
		ps = append(ps, p)
	}
	return ps
}

// goldenName names a cell. A codec off the default scale rule gets a
// suffix, so the default cells keep the names they were recorded under.
func goldenName(p Params, tail int, row string) string {
	variant := ""
	if p.ScaleMode == ScaleMMSE {
		variant += "-mmse"
	}
	if p.ClipSigma != 0 {
		variant += fmt.Sprintf("-clip%g", p.ClipSigma)
	}
	return fmt.Sprintf("%s-p%d%s/q%d/%s", p.Scheme, p.withDefaults().P, variant, tail, row)
}

func hashFloats(h hash.Hash, tag string, v []float32) {
	fmt.Fprintf(h, "\n%s %d:", tag, len(v))
	for _, x := range v {
		fmt.Fprintf(h, "%08x", math.Float32bits(x))
	}
}

// codecBitsDigest encodes row with c and hashes everything a receiver can
// see of it.
func codecBitsDigest(t *testing.T, c Codec, row []float32) string {
	t.Helper()
	enc, err := c.Encode(row, 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %016x\nheads:", enc.Scheme, enc.P, enc.Q, enc.N, math.Float64bits(enc.Scale))
	for _, x := range enc.Heads {
		fmt.Fprintf(h, "%08x", x)
	}
	fmt.Fprint(h, "\ntails:")
	for _, x := range enc.Tails {
		fmt.Fprintf(h, "%08x", x)
	}

	n := len(row)
	dec, err := c.Decode(enc, nil, AllTrimmed(n))
	if err != nil {
		t.Fatal(err)
	}
	hashFloats(h, "all-trimmed", dec)
	headAvail, tailAvail := make([]bool, n), make([]bool, n)
	for i := range headAvail {
		headAvail[i] = i%7 != 3
		tailAvail[i] = i%3 == 0
	}
	if dec, err = c.Decode(enc, headAvail, tailAvail); err != nil {
		t.Fatal(err)
	}
	hashFloats(h, "mixed", dec)

	// Packets of 300 coordinates (the last one short), each keeping a
	// different survivor prefix: none, all, and ragged ones between.
	nd, err := NewNativeDecoder(enc.Scheme, enc.P, enc.Q, enc.Scale, enc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	native := make([]float32, n)
	for k, start := 0, 0; start < n; k, start = k+1, start+300 {
		end := min(start+300, n)
		keep := (k * 97) % (end - start + 1)
		if err := nd.PacketValues(native[start:end], start, enc.Heads[start:end], enc.Tails[start:end], keep); err != nil {
			t.Fatal(err)
		}
	}
	hashFloats(h, "native", native)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestCodecBitsGolden(t *testing.T) {
	got := map[string]string{}
	for _, p := range goldenParams() {
		for _, tail := range []int{0, 12} {
			p.TailBits = tail
			c := MustNew(p)
			for _, r := range goldenRows() {
				if r.scalar && Rotated(p.Scheme) {
					continue
				}
				got[goldenName(p, tail, r.name)] = codecBitsDigest(t, c, r.row)
			}
		}
	}
	if *updateCodecBits {
		keys := make([]string, 0, len(got))
		for key := range got {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, key := range keys {
			fmt.Fprintf(&b, "%s %s\n", key, got[key])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(codecBitsGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(codecBitsGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if key, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[key] = digest
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d cells, the test has %d", codecBitsGolden, len(want), len(got))
	}
	for key, digest := range got {
		if want[key] != digest {
			t.Errorf("%s: digest %s, recorded %s", key, digest, want[key])
		}
	}
}
