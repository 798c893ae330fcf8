package quant

import (
	"math"
	"testing"

	"trimgrad/internal/xrand"
)

// nativeTestParams covers every scheme at its representative head width.
var nativeTestParams = []Params{
	{Scheme: Sign},
	{Scheme: SQ},
	{Scheme: SD},
	{Scheme: RHT},
	{Scheme: Linear, P: 6},
	{Scheme: RHTLinear, P: 8},
	{Scheme: Eden, P: 2},
}

func prefixMask(n, tc int) []bool {
	m := make([]bool, n)
	for i := 0; i < tc; i++ {
		m[i] = true
	}
	return m
}

// TestNativeDecoderMatchesDecode pins NativeDecoder's contract: for any
// survivor prefix, summing-switch native values finalized once per row are
// bit-for-bit the values Codec.Decode produces.
func TestNativeDecoderMatchesDecode(t *testing.T) {
	const n = 256
	for _, p := range nativeTestParams {
		c := MustNew(p)
		row := make([]float32, n)
		r := xrand.New(0xfeed)
		for i := range row {
			row[i] = float32(r.NormFloat64())
		}
		const seed = 0xabcdef012345
		enc, err := c.Encode(row, seed)
		if err != nil {
			t.Fatalf("%v: %v", p.Scheme, err)
		}
		nd, err := NewNativeDecoder(enc.Scheme, enc.P, enc.Q, enc.Scale, seed)
		if err != nil {
			t.Fatalf("%v: %v", p.Scheme, err)
		}
		for _, tc := range []int{0, 1, 100, n} {
			want, err := c.Decode(enc, nil, prefixMask(n, tc))
			if err != nil {
				t.Fatalf("%v tc=%d: %v", p.Scheme, tc, err)
			}
			got := make([]float32, n)
			if err := nd.PacketValues(got, 0, enc.Heads, enc.Tails, tc); err != nil {
				t.Fatalf("%v tc=%d: %v", p.Scheme, tc, err)
			}
			if err := FinalizeNative(enc.Scheme, seed, got); err != nil {
				t.Fatalf("%v tc=%d: %v", p.Scheme, tc, err)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%v tc=%d: coord %d: native %v != decode %v",
						p.Scheme, tc, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNativeDecoderPacketSplit pins the start offset: decoding a row as
// two packets yields the same native values as one packet — in particular
// the SD dither stream must be burned to the split point.
func TestNativeDecoderPacketSplit(t *testing.T) {
	const n, split = 256, 96
	for _, p := range nativeTestParams {
		c := MustNew(p)
		row := make([]float32, n)
		r := xrand.New(0xbead)
		for i := range row {
			row[i] = float32(r.NormFloat64())
		}
		const seed = 0x5eed
		enc, err := c.Encode(row, seed)
		if err != nil {
			t.Fatalf("%v: %v", p.Scheme, err)
		}
		nd, err := NewNativeDecoder(enc.Scheme, enc.P, enc.Q, enc.Scale, seed)
		if err != nil {
			t.Fatalf("%v: %v", p.Scheme, err)
		}
		for _, tc := range []int{0, n} {
			// Dirty outputs: PacketValues must store every entry.
			whole, got := make([]float32, n), make([]float32, n)
			for i := range got {
				whole[i], got[i] = 1e30, -1e30
			}
			if err := nd.PacketValues(whole, 0, enc.Heads, enc.Tails, tc); err != nil {
				t.Fatalf("%v: %v", p.Scheme, err)
			}
			tc1 := min(tc, split)
			if err := nd.PacketValues(got[:split], 0, enc.Heads[:split], enc.Tails[:split], tc1); err != nil {
				t.Fatalf("%v: %v", p.Scheme, err)
			}
			if err := nd.PacketValues(got[split:], split, enc.Heads[split:], enc.Tails[split:], tc-tc1); err != nil {
				t.Fatalf("%v: %v", p.Scheme, err)
			}
			if nd.PacketValues(got[:split-1], 0, enc.Heads[:split], enc.Tails[:split], tc1) == nil {
				t.Fatalf("%v: short output slice accepted", p.Scheme)
			}
			for i := range whole {
				if whole[i] != got[i] {
					t.Fatalf("%v tc=%d: coord %d: split %v != whole %v",
						p.Scheme, tc, i, got[i], whole[i])
				}
			}
		}

		// One decoder, many packets, any arrival order: packets of 37
		// coordinates, every third one trimmed, must land on Codec.Decode's
		// values whether they come in order, reversed, shuffled or twice —
		// the decoder keeps the SD dither stream between packets, and has to
		// find each packet's place in it again.
		const per = 37
		nPkts := (n + per - 1) / per
		mask := make([]bool, n)
		for i := range mask {
			mask[i] = (i/per)%3 != 1
		}
		want, err := c.Decode(enc, nil, mask)
		if err != nil {
			t.Fatalf("%v: %v", p.Scheme, err)
		}
		inOrder := make([]int, nPkts)
		for k := range inOrder {
			inOrder[k] = k
		}
		reversed := make([]int, nPkts)
		for k := range reversed {
			reversed[k] = nPkts - 1 - k
		}
		shuffled := append([]int(nil), inOrder...)
		for k := len(shuffled) - 1; k > 0; k-- {
			j := int(r.Uint64() % uint64(k+1))
			shuffled[k], shuffled[j] = shuffled[j], shuffled[k]
		}
		duplicated := append(append(append([]int(nil), inOrder...), shuffled...), 2, 2, 0)
		for name, order := range map[string][]int{
			"in order": inOrder, "reversed": reversed, "shuffled": shuffled, "duplicated": duplicated,
		} {
			got := make([]float32, n)
			for _, k := range order {
				lo, hi := k*per, min((k+1)*per, n)
				tc := hi - lo
				if k%3 == 1 {
					tc = 0
				}
				if err := nd.PacketValues(got[lo:hi], lo, enc.Heads[lo:hi], enc.Tails[lo:hi], tc); err != nil {
					t.Fatalf("%v %s: packet %d: %v", p.Scheme, name, k, err)
				}
			}
			if err := FinalizeNative(enc.Scheme, seed, got); err != nil {
				t.Fatalf("%v %s: %v", p.Scheme, name, err)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%v %s: coord %d: native %v != decode %v", p.Scheme, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPacketValuesMatchesDecodeEveryRun pins PacketValues' two per-scheme
// loops to Codec.Decode's per-coordinate switch, bit for bit: one packet
// covering row coordinates [start, n) with its first tailCount tails, for
// every start and every tailCount (so every length of both runs, and every
// place in the SD dither stream a packet can begin or change run at),
// against Decode under the masks that say exactly that. One decoder serves
// all of them in an order that seeks the dither stream both ways. Rows hold
// ±0, subnormals, ±Inf and NaN beside ordinary values, at narrowed tails
// too, and the reliable scale is replaced by NaN, ±Inf, a negative and 0.
func TestPacketValuesMatchesDecodeEveryRun(t *testing.T) {
	const n = 32
	inf := float32(math.Inf(1))
	special := []float32{0, float32(math.Copysign(0, -1)), 1e-42, -1e-42, inf, -inf,
		float32(math.NaN()), math.Float32frombits(0xffc00001), 1, -1}
	params := append([]Params(nil), nativeTestParams...)
	for _, p := range nativeTestParams {
		for _, tb := range []int{8, 16} {
			p.TailBits = tb
			params = append(params, p)
		}
	}
	for _, p := range params {
		c := MustNew(p)
		for _, finite := range []bool{true, false} {
			r := xrand.New(0xc0de)
			row := make([]float32, n)
			for i := range row {
				row[i] = float32(r.NormFloat64())
			}
			scales := []float64{math.NaN()} // a non-finite row's own scale is NaN at best
			if finite {
				copy(row[3:], special[:4])
				scales = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.75, 0}
			} else {
				copy(row[3:], special)
			}
			const seed = 0x5eedf00d
			enc, err := c.Encode(row, seed)
			if err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			for _, scale := range append([]float64{enc.Scale}, scales...) {
				enc.Scale = scale
				nd, err := NewNativeDecoder(enc.Scheme, enc.P, enc.Q, enc.Scale, seed)
				if err != nil {
					t.Fatalf("%v: %v", p, err)
				}
				for k := 0; k < n; k++ {
					start := k * 13 % n // 13 is a unit mod 32: every start, out of order
					for tc := 0; tc <= n-start; tc++ {
						headAvail, tailAvail := make([]bool, n), make([]bool, n)
						for i := start; i < n; i++ {
							headAvail[i], tailAvail[i] = true, i < start+tc
						}
						want, err := c.Decode(enc, headAvail, tailAvail)
						if err != nil {
							t.Fatalf("%v: %v", p, err)
						}
						got := make([]float32, n)
						if err := nd.PacketValues(got[start:], start, enc.Heads[start:], enc.Tails[start:], tc); err != nil {
							t.Fatalf("%v: %v", p, err)
						}
						if err := FinalizeNative(enc.Scheme, seed, got); err != nil {
							t.Fatalf("%v: %v", p, err)
						}
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%v scale %v start %d tailCount %d: coord %d: native %x != decode %x",
									p, scale, start, tc, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestEncodeOverwritesPooledWords: Heads and Tails come from a scratch
// pool and arrive dirty, so every codec must write every word — a released
// row that was all ones must not show through the next encode.
func TestEncodeOverwritesPooledWords(t *testing.T) {
	const n = 256
	row := make([]float32, n)
	r := xrand.New(0xd1e7)
	for i := range row {
		row[i] = float32(r.NormFloat64())
	}
	for _, p := range nativeTestParams {
		c := MustNew(p)
		first, err := c.Encode(row, 9)
		if err != nil {
			t.Fatalf("%v: %v", p.Scheme, err)
		}
		heads := append([]uint32(nil), first.Heads...)
		tails := append([]uint32(nil), first.Tails...)
		for i := range first.Heads {
			first.Heads[i], first.Tails[i] = ^uint32(0), ^uint32(0)
		}
		first.Release()
		if first.Heads != nil || first.Tails != nil {
			t.Fatalf("%v: Release left the row holding its words", p.Scheme)
		}
		again, err := c.Encode(row, 9)
		if err != nil {
			t.Fatalf("%v: %v", p.Scheme, err)
		}
		for i := range heads {
			if again.Heads[i] != heads[i] || again.Tails[i] != tails[i] {
				t.Fatalf("%v: coord %d: (%x, %x) after a dirty pool, (%x, %x) before",
					p.Scheme, i, again.Heads[i], again.Tails[i], heads[i], tails[i])
			}
		}
	}
}
