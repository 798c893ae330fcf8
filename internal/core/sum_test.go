package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"trimgrad/internal/quant"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/wire"
)

// sumTestParams covers every scheme at its representative head width.
var sumTestParams = []quant.Params{
	{Scheme: quant.Sign},
	{Scheme: quant.SQ},
	{Scheme: quant.SD},
	{Scheme: quant.RHT},
	{Scheme: quant.Linear, P: 6},
	{Scheme: quant.RHTLinear, P: 8},
	{Scheme: quant.Eden, P: 2},
}

func sumTestConfig(p quant.Params) Config {
	return Config{Params: p, RowSize: 1 << 9}
}

// encodeSumFlows encodes one gradient per flow under a shared message id.
func encodeSumFlows(t *testing.T, base Config, nFlows, dim int, seed uint64) ([][]float32, []*Message) {
	t.Helper()
	grads := make([][]float32, nFlows)
	msgs := make([]*Message, nFlows)
	for f := 0; f < nFlows; f++ {
		cfg := base
		cfg.Flow = uint32(f)
		enc, err := NewEncoderWith(WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		grads[f] = gaussianGrad(seed+uint64(f), dim)
		m, err := enc.Encode(7, 42, grads[f])
		if err != nil {
			t.Fatal(err)
		}
		msgs[f] = m
	}
	return grads, msgs
}

type metaKey struct{ flow, row uint32 }

// metaLookup builds the metaOf callback an aggregating switch would fill
// by snooping the flows' metadata packets.
func metaLookup(t *testing.T, scheme quant.Scheme, msgs []*Message) func(flow, msg, row uint32) (wire.MetaInfo, bool) {
	t.Helper()
	cache := make(map[metaKey]wire.MetaInfo)
	for _, m := range msgs {
		for _, pkt := range m.Meta {
			mp, err := wire.ParseMetaPacket(pkt)
			if err != nil {
				t.Fatal(err)
			}
			cache[metaKey{mp.Flow, mp.Row}] = wire.MetaInfo{Scheme: scheme, Scale: mp.Scale}
		}
	}
	return func(flow, msg, row uint32) (wire.MetaInfo, bool) {
		mi, ok := cache[metaKey{flow, row}]
		return mi, ok
	}
}

func feedAll(t *testing.T, sd *SumDecoder, pkts ...[]byte) {
	t.Helper()
	for _, p := range pkts {
		if err := sd.Handle(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSumDecoderMatchesSeparateDecoders: one summing decoder over N flows
// reconstructs the same sum as N per-flow decoders added together —
// bit-for-bit for the scalar schemes (same addition order), and within
// rotation-rounding for the RHT family (the inverse transform runs once
// on the sum instead of once per flow).
func TestSumDecoderMatchesSeparateDecoders(t *testing.T) {
	const nFlows, dim = 3, 1 << 10 // two rows of two packets each
	for _, p := range sumTestParams {
		cfg := sumTestConfig(p)
		_, msgs := encodeSumFlows(t, cfg, nFlows, dim, 99)
		sd, err := NewSumDecoder(42, nFlows, WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]float32, dim)
		for f, m := range msgs {
			feedAll(t, sd, m.Meta...)
			feedAll(t, sd, m.Data...)

			fcfg := cfg
			fcfg.Flow = uint32(f)
			dec, err := NewDecoderWith(42, WithConfig(fcfg))
			if err != nil {
				t.Fatal(err)
			}
			for _, pkt := range append(append([][]byte{}, m.Meta...), m.Data...) {
				if err := dec.Handle(pkt); err != nil {
					t.Fatal(err)
				}
			}
			out, _, err := dec.DecodeParallel(dim, 0)
			if err != nil {
				t.Fatal(err)
			}
			vecmath.Add(ref, out)
		}
		sum, stats, err := sd.Reconstruct(dim)
		if err != nil {
			t.Fatalf("%v: %v", p.Scheme, err)
		}
		if stats.Packets != stats.ExpectedPackets || stats.TrimFraction() != 0 {
			t.Fatalf("%v: unexpected loss: %+v", p.Scheme, stats)
		}
		if quant.Rotated(p.Scheme) {
			if nmse := vecmath.NMSE(ref, sum); nmse > 1e-9 {
				t.Fatalf("%v: NMSE %g vs separate decoders", p.Scheme, nmse)
			}
			continue
		}
		for i := range ref {
			if ref[i] != sum[i] {
				t.Fatalf("%v: coord %d: sum %v != separate %v", p.Scheme, i, sum[i], ref[i])
			}
		}
	}
}

// TestSumDecoderAggregatesMatchPlain: feeding switch-built aggregates is
// bit-identical to feeding the original per-flow packets — for every
// scheme, including the rotated family (both paths sum in the native
// domain and invert the rotation once).
func TestSumDecoderAggregatesMatchPlain(t *testing.T) {
	const nFlows, dim = 3, 1 << 9
	for _, p := range sumTestParams {
		cfg := sumTestConfig(p)
		_, msgs := encodeSumFlows(t, cfg, nFlows, dim, 7)
		metaOf := metaLookup(t, p.Scheme, msgs)

		sdPlain, err := NewSumDecoder(42, nFlows, WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		sdAgg, err := NewSumDecoder(42, nFlows, WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			feedAll(t, sdPlain, m.Meta...)
			feedAll(t, sdAgg, m.Meta...)
		}
		for _, m := range msgs {
			feedAll(t, sdPlain, m.Data...)
		}
		// The switch path: fold packet j of every flow into one aggregate.
		for j := range msgs[0].Data {
			agg := append([]byte(nil), msgs[0].Data[j]...)
			for f := 1; f < nFlows; f++ {
				merged, err := wire.MergeTrimmable(agg, msgs[f].Data[j], metaOf)
				if err != nil {
					t.Fatalf("%v: merge flow %d: %v", p.Scheme, f, err)
				}
				agg = merged
			}
			feedAll(t, sdAgg, agg)
		}
		plain, pStats, err := sdPlain.Reconstruct(dim)
		if err != nil {
			t.Fatal(err)
		}
		agg, aStats, err := sdAgg.Reconstruct(dim)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain {
			if plain[i] != agg[i] {
				t.Fatalf("%v: coord %d: agg %v != plain %v", p.Scheme, i, agg[i], plain[i])
			}
		}
		// An aggregate folding k originals credits k packets to accounting.
		if pStats.Packets != aStats.Packets {
			t.Fatalf("%v: packets: agg %d != plain %d", p.Scheme, aStats.Packets, pStats.Packets)
		}
	}
}

// TestSumDecoderAggBeforeMeta: an aggregate arriving before any metadata
// must still decode (geometry is adopted from the aggregate and upgraded
// when the meta shows up).
func TestSumDecoderAggBeforeMeta(t *testing.T) {
	const nFlows, dim = 2, 1 << 9
	cfg := sumTestConfig(quant.Params{Scheme: quant.Sign})
	_, msgs := encodeSumFlows(t, cfg, nFlows, dim, 3)
	metaOf := metaLookup(t, quant.Sign, msgs)

	sd, err := NewSumDecoder(42, nFlows, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for j := range msgs[0].Data {
		agg, err := wire.MergeTrimmable(msgs[0].Data[j], msgs[1].Data[j], metaOf)
		if err != nil {
			t.Fatal(err)
		}
		feedAll(t, sd, agg)
	}
	for _, m := range msgs {
		feedAll(t, sd, m.Meta...)
	}
	ref, err := NewSumDecoder(42, nFlows, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		feedAll(t, ref, m.Meta...)
		feedAll(t, ref, m.Data...)
	}
	got, _, err := sd.Reconstruct(dim)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.Reconstruct(dim)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coord %d: agg-first %v != meta-first %v", i, got[i], want[i])
		}
	}
}

// TestQuickTrimAggregateCommutes is the survivor-prefix property, end to
// end, for every quantization scheme: aggregating N already-trimmed
// packets produces byte-identical wire bytes — and therefore the same
// reconstructed gradient — as trimming the aggregate of the N untrimmed
// packets to the minimum survivor prefix. Trim-after-aggregate and
// aggregate-of-trimmed are the same operator.
func TestQuickTrimAggregateCommutes(t *testing.T) {
	const nFlows, dim = 3, 1 << 9
	for _, p := range sumTestParams {
		p := p
		cfg := sumTestConfig(p)
		check := func(seed uint64, cut0, cut1, cut2 uint16) bool {
			cuts := []uint16{cut0, cut1, cut2}
			_, msgs := encodeSumFlows(t, cfg, nFlows, dim, seed)
			metaOf := metaLookup(t, p.Scheme, msgs)
			sdTrimFirst, err := NewSumDecoder(42, nFlows, WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			sdAggFirst, err := NewSumDecoder(42, nFlows, WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			sdUniform, err := NewSumDecoder(42, nFlows, WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range msgs {
				feedAll(t, sdTrimFirst, m.Meta...)
				feedAll(t, sdAggFirst, m.Meta...)
				feedAll(t, sdUniform, m.Meta...)
			}
			for j := range msgs[0].Data {
				h, err := wire.ParseHeader(msgs[0].Data[j])
				if err != nil {
					t.Fatal(err)
				}
				boundary := wire.HeaderSize + h.HeadBytes()
				// Trim each flow's copy of packet j at its own random point,
				// then fold: aggregate-of-trimmed.
				tcMin := int(h.Count)
				var trimmed [][]byte
				for f := 0; f < nFlows; f++ {
					buf := append([]byte(nil), msgs[f].Data[j]...)
					buf = wire.Trim(buf, boundary+int(cuts[f])%(h.TailBytes()+1))
					dp, err := wire.ParseDataPacket(buf)
					if err != nil {
						t.Fatal(err)
					}
					if dp.TailCount < tcMin {
						tcMin = dp.TailCount
					}
					trimmed = append(trimmed, buf)
				}
				aggT := trimmed[0]
				for f := 1; f < nFlows; f++ {
					aggT, err = wire.MergeTrimmable(aggT, trimmed[f], metaOf)
					if err != nil {
						t.Fatal(err)
					}
				}
				// Fold untrimmed, then trim the aggregate to the same prefix:
				// trim-after-aggregate.
				aggU := msgs[0].Data[j]
				for f := 1; f < nFlows; f++ {
					aggU, err = wire.MergeTrimmable(aggU, msgs[f].Data[j], metaOf)
					if err != nil {
						t.Fatal(err)
					}
				}
				aggU = wire.Trim(aggU, wire.HeaderSize+4*int(h.Count)+4*tcMin)
				if !bytes.Equal(aggT, aggU) {
					t.Errorf("%v seed=%d pkt=%d: aggregate-of-trimmed != trim-after-aggregate", p.Scheme, seed, j)
					return false
				}
				feedAll(t, sdAggFirst, aggU)
				feedAll(t, sdTrimFirst, aggT)
				// Reference: deliver each flow plainly, trimmed to the shared
				// prefix — what a receiver sums without any switch help.
				for f := 0; f < nFlows; f++ {
					buf := append([]byte(nil), msgs[f].Data[j]...)
					buf = wire.Trim(buf, boundary+(tcMin*int(h.Q)+7)/8)
					feedAll(t, sdUniform, buf)
				}
			}
			a, _, err := sdTrimFirst.Reconstruct(dim)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := sdAggFirst.Reconstruct(dim)
			if err != nil {
				t.Fatal(err)
			}
			u, _, err := sdUniform.Reconstruct(dim)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if a[i] != b[i] || a[i] != u[i] {
					t.Errorf("%v seed=%d: coord %d: trimmed-agg %v, agg-trim %v, plain %v",
						p.Scheme, seed, i, a[i], b[i], u[i])
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 6}); err != nil {
			t.Errorf("%v: %v", p.Scheme, err)
		}
	}
}
