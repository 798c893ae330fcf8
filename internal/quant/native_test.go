package quant

import (
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
	}
}
