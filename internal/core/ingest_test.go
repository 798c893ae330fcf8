package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

// The decoders ingest a packet by decoding it straight into its row's
// native-domain accumulator. What that replaced — reassemble the row's bits
// with wire.RowAssembler, then decode the whole row with Codec.DecodeInto —
// stays as the public row-level API, and here as the reference the
// accumulating path is pinned against bit for bit: gradient, every Stats
// field, every per-packet verdict and the obs export.

// refDecoder is the reassembling Decoder: ParseDataPacket + RowAssembler
// .AddData per packet, Codec.DecodeInto per row.
type refDecoder struct {
	cfg     Config
	codec   quant.Codec
	msgID   uint32
	rows    map[uint32]*wire.RowAssembler
	pending map[uint32][][]byte
	stats   Stats
	obs     decObs
}

func newRefDecoder(t *testing.T, msgID uint32, cfg Config, reg *obs.Registry) *refDecoder {
	t.Helper()
	cfg = cfg.withDefaults()
	return &refDecoder{
		cfg: cfg, codec: quant.MustNew(cfg.Params), msgID: msgID,
		rows:    make(map[uint32]*wire.RowAssembler),
		pending: make(map[uint32][][]byte),
		obs:     newDecObs(reg),
	}
}

func (d *refDecoder) Handle(pkt []byte) error {
	if err := d.handle(pkt); err != nil {
		d.stats.RejectedPackets++
		return err
	}
	return nil
}

func (d *refDecoder) handle(pkt []byte) error {
	h, err := wire.ParseHeader(pkt)
	if err != nil {
		return err
	}
	if h.Message != d.msgID {
		return fmt.Errorf("packet for message %d", h.Message)
	}
	asm := d.rows[h.Row]
	if asm == nil {
		asm = wire.NewRowAssembler()
		d.rows[h.Row] = asm
	}
	if h.IsMeta() {
		m, err := wire.ParseMetaPacket(pkt)
		if err != nil {
			return err
		}
		if err := asm.AddMeta(m); err != nil {
			return err
		}
		pkts := d.pending[h.Row]
		delete(d.pending, h.Row)
		for _, p := range pkts {
			if err := d.addData(asm, p); err != nil {
				d.stats.RejectedPackets++
			}
		}
		return nil
	}
	if !asm.HaveMeta() {
		if _, _, err := wire.CheckDataPacket(pkt); err != nil {
			return err
		}
		d.pending[h.Row] = append(d.pending[h.Row], pkt)
		return nil
	}
	return d.addData(asm, pkt)
}

func (d *refDecoder) addData(asm *wire.RowAssembler, pkt []byte) error {
	dp, err := wire.ParseDataPacket(pkt)
	if err != nil {
		return err
	}
	if err := asm.AddData(dp); err != nil {
		return err
	}
	d.stats.Packets++
	d.stats.BytesReceived += len(pkt)
	d.obs.packetBytes.Observe(int64(len(pkt)))
	if dp.Trimmed() {
		d.stats.TrimmedPackets++
	}
	return nil
}

func (d *refDecoder) Reconstruct(n int) ([]float32, Stats, error) {
	rowSize := d.cfg.RowSize
	nRows := (n + rowSize - 1) / rowSize
	out := make([]float32, nRows*rowSize)
	defer func() { d.obs.flush(d.stats) }()
	d.stats.ExpectedPackets, d.stats.TrimmedCoords, d.stats.TotalCoords, d.stats.DroppedCoords = 0, 0, 0, 0
	for r := 0; r < nRows; r++ {
		dst := out[r*rowSize : (r+1)*rowSize]
		asm := d.rows[uint32(r)]
		if asm == nil || !asm.HaveMeta() {
			d.stats.TotalCoords += len(dst)
			d.stats.DroppedCoords += len(dst)
			continue
		}
		enc, headAvail, tailAvail, err := asm.Assemble()
		if err != nil {
			return nil, d.stats, err
		}
		d.stats.ExpectedPackets += asm.ExpectedPackets()
		if err := d.codec.DecodeInto(dst[:enc.N], enc, headAvail, tailAvail); err != nil {
			return nil, d.stats, err
		}
		heads, tails := asm.Filled()
		d.stats.TotalCoords += enc.N
		d.stats.TrimmedCoords += heads - tails
		d.stats.DroppedCoords += enc.N - heads
	}
	return out[:n], d.stats, nil
}

func (d *refDecoder) Stats() Stats {
	d.obs.flush(d.stats)
	return d.stats
}

// ingestSchemes × ingestTailBits is every codec at its representative head
// width, at full precision and at two narrowed tails (§5.3).
var (
	ingestSchemes = []quant.Params{
		{Scheme: quant.Sign}, {Scheme: quant.SQ}, {Scheme: quant.SD}, {Scheme: quant.RHT},
		{Scheme: quant.Linear, P: 8}, {Scheme: quant.RHTLinear, P: 8}, {Scheme: quant.Eden, P: 2},
	}
	ingestTailBits = []int{0, 8, 16}
)

const (
	ingestRowSize = 1 << 10
	ingestMsg     = 11
	ingestEpoch   = 5
)

// awkwardGrad is three and a half rows: row 0 ordinary values with ±0 and
// subnormals among them, row 1 with ±Inf and NaNs (its scale comes out
// non-finite), rows 2 and 3 ordinary.
func awkwardGrad(seed uint64) []float32 {
	g := gaussianGrad(seed, 3*ingestRowSize+ingestRowSize/2)
	negZero := float32(math.Copysign(0, -1))
	for i, v := range []float32{0, negZero, 1e-42, -1e-42, math.Float32frombits(1), negZero, 0} {
		g[17+61*i] = v
	}
	inf := float32(math.Inf(1))
	for i, v := range []float32{inf, -inf, float32(math.NaN()), math.Float32frombits(0xffc00001)} {
		g[ingestRowSize+29+97*i] = v
	}
	return g
}

// wireMessage is one flow's encoded message as packets, row by row.
type wireMessage struct {
	n     int
	metas [][]byte   // one per row
	data  [][][]byte // per row
}

// encodeAwkward encodes grad under cfg and then makes the message awkward
// on the wire too: row 2's metadata is re-issued with a negative scale and
// row 3 — the ragged last row — is re-encoded at its true half length and
// shipped with an infinite one.
func encodeAwkward(t *testing.T, cfg Config, grad []float32) wireMessage {
	t.Helper()
	enc, err := NewEncoderWith(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := enc.Encode(ingestEpoch, ingestMsg, grad)
	if err != nil {
		t.Fatal(err)
	}
	m := wireMessage{n: len(grad), metas: msg.Meta, data: make([][][]byte, len(msg.Meta))}
	for _, pkt := range msg.Data {
		h, err := wire.ParseHeader(pkt)
		if err != nil {
			t.Fatal(err)
		}
		m.data[h.Row] = append(m.data[h.Row], pkt)
	}
	reissue := func(row int, n uint32, scale float64) {
		mp, err := wire.ParseMetaPacket(m.metas[row])
		if err != nil {
			t.Fatal(err)
		}
		m.metas[row] = wire.BuildMetaPacket(mp.Header, mp.Scheme, n, scale)
	}
	reissue(2, ingestRowSize, -0.5)

	const last = 3
	half, err := enc.Codec().Encode(grad[last*ingestRowSize:], RowSeed(ingestEpoch, ingestMsg, last))
	if err != nil {
		t.Fatal(err)
	}
	if m.metas[last], m.data[last], err = wire.PackRow(cfg.Flow, ingestMsg, last, half); err != nil {
		t.Fatal(err)
	}
	reissue(last, uint32(half.N), math.Inf(1))
	return m
}

// trimTo is the switch's trim of a copy of pkt, keeping extra bytes of tail
// region beyond the head boundary (0: heads only).
func trimTo(t *testing.T, pkt []byte, extra int) []byte {
	t.Helper()
	h, err := wire.ParseHeader(pkt)
	if err != nil {
		t.Fatal(err)
	}
	return wire.Trim(bytes.Clone(pkt), h.TrimmedSize()+extra)
}

// arrivals returns the delivery orders the ingestion has to be indifferent
// to, or exact about: each a flat packet sequence.
func arrivals(t *testing.T, m wireMessage, seed uint64) map[string][][]byte {
	t.Helper()
	var data [][]byte
	for _, row := range m.data {
		data = append(data, row...)
	}
	cat := func(parts ...[][]byte) [][]byte {
		var out [][]byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	each := func(f func(i int, pkt []byte) [][]byte) [][]byte {
		var out [][]byte
		for i, pkt := range data {
			out = append(out, f(i, pkt)...)
		}
		return out
	}
	inOrder := cat(m.metas, data)
	twice := make([][]byte, 0, 2*len(inOrder))
	for _, pkt := range inOrder {
		twice = append(twice, pkt, pkt)
	}
	rng := xrand.New(seed)
	dropped := cat(m.metas, each(func(_ int, pkt []byte) [][]byte {
		switch u := rng.Float64(); {
		case u < 0.3:
			return nil
		case u < 0.6:
			return [][]byte{trimTo(t, pkt, 0)}
		}
		return [][]byte{pkt}
	}))
	// Reversed, the data outruns its metadata and every row is walked
	// backwards, trimmed packets included.
	reversed := make([][]byte, len(dropped))
	for i, pkt := range dropped {
		reversed[len(dropped)-1-i] = pkt
	}
	// Mid-tail trims keep a different number of whole tails per packet; then
	// every other packet comes again, head-only (must change nothing) or in
	// full (must upgrade what the partial copy left head-only).
	midTail := cat(
		each(func(i int, pkt []byte) [][]byte { return [][]byte{trimTo(t, pkt, 1+i*131%(len(pkt)-wire.HeaderSize))} }),
		each(func(i int, pkt []byte) [][]byte {
			switch i % 3 {
			case 0:
				return [][]byte{trimTo(t, pkt, 0)}
			case 1:
				return [][]byte{pkt}
			}
			return nil
		}))

	// Hostile and stray packets between honest ones: every verdict has to
	// match the reference's, and none may disturb the rows.
	foreign := encodeForeign(t, m, data[0])
	corrupt := bytes.Clone(data[1])
	corrupt[wire.HeaderSize+1] ^= 0x10
	late := bytes.Clone(data[len(data)-1])
	late[len(late)-1] ^= 0x01 // tail-region damage on an untrimmed packet
	hostile := cat(m.metas[:2], [][]byte{
		data[0], corrupt, foreign.seed, data[1], foreign.message, foreign.beyond,
		{0xde, 0xad}, foreign.naive, m.metas[0], late,
	}, data[2:], m.metas[2:], data[len(data)-2:])

	return map[string][][]byte{
		"in order":          inOrder,
		"reversed":          reversed,
		"meta last":         cat(data, m.metas),
		"every packet x2":   twice,
		"full then trimmed": cat(m.metas, each(func(_ int, pkt []byte) [][]byte { return [][]byte{pkt, trimTo(t, pkt, 0)} })),
		"trimmed then full": cat(m.metas, each(func(_ int, pkt []byte) [][]byte { return [][]byte{trimTo(t, pkt, 0), pkt} })),
		"mid-tail trims":    cat(m.metas, midTail),
		"30% dropped":       dropped,
		"hostile mix":       hostile,
	}
}

// foreignPackets are CRC-valid packets that do not belong in the message.
type foreignPackets struct{ seed, message, beyond, naive []byte }

func encodeForeign(t *testing.T, m wireMessage, like []byte) foreignPackets {
	t.Helper()
	dp, err := wire.ParseDataPacket(like)
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func(edit func(h *wire.Header)) []byte {
		h := dp.Header
		edit(&h)
		pkt, err := wire.BuildDataPacket(h, dp.Heads, dp.Tails)
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	naive, err := wire.BuildNaivePacket(dp.Header, []float32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return foreignPackets{
		seed:    rebuild(func(h *wire.Header) { h.Seed ^= 1 }),
		message: rebuild(func(h *wire.Header) { h.Message++ }),
		beyond:  rebuild(func(h *wire.Header) { h.Start = ingestRowSize - 10 }),
		naive:   naive,
	}
}

func requireSameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: coord %d = %08x, want %08x", label, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// canonNaNs gives every NaN in v one bit pattern, for comparing sums: which
// operand's payload and sign a NaN + NaN add keeps is the compiler's choice
// of operand order, not the code's.
func canonNaNs(v []float32) []float32 {
	for i, x := range v {
		if x != x {
			v[i] = float32(math.NaN())
		}
	}
	return v
}

// TestDecoderMatchesReassemblingReference: scheme × tail width × arrival
// order × worker count, on a gradient and scales chosen to be awkward.
func TestDecoderMatchesReassemblingReference(t *testing.T) {
	for _, p := range ingestSchemes {
		for _, tb := range ingestTailBits {
			p.TailBits = tb
			cfg := Config{Params: p, RowSize: ingestRowSize, Flow: 3}
			m := encodeAwkward(t, cfg, awkwardGrad(90))
			for name, pkts := range arrivals(t, m, 91) {
				refReg := obs.New()
				ref := newRefDecoder(t, ingestMsg, cfg, refReg)
				for _, pkt := range pkts {
					_ = ref.Handle(pkt)
				}
				want, wantStats, err := ref.Reconstruct(m.n)
				if err != nil {
					t.Fatal(err)
				}
				wantSnap := refReg.Snapshot()
				for _, workers := range []int{1, 0} {
					label := fmt.Sprintf("%v q=%d %s workers=%d", p.Scheme, tb, name, workers)
					reg := obs.New()
					dec, err := NewDecoderWith(ingestMsg, WithConfig(cfg), WithRegistry(reg))
					if err != nil {
						t.Fatal(err)
					}
					verdicts := newRefDecoder(t, ingestMsg, cfg, nil)
					for i, pkt := range pkts {
						if got, want := dec.Handle(pkt), verdicts.Handle(pkt); (got == nil) != (want == nil) {
							t.Fatalf("%s: packet %d: Handle = %v, reference = %v", label, i, got, want)
						}
					}
					got, gotStats, err := dec.DecodeParallel(m.n, workers)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireSameBits(t, label, got, want)
					if gotStats != wantStats || dec.Stats() != wantStats {
						t.Fatalf("%s: stats\n got %+v\nwant %+v", label, gotStats, wantStats)
					}
					snapshotsEqual(t, label, reg.Snapshot(), wantSnap)
				}
			}
		}
	}
}

// refNativeRow decodes a reassembled row into the scheme's native domain one
// coordinate at a time (quant's own tests pin PacketValues per coordinate
// to Codec.Decode); a coordinate whose head never arrived stays zero. It is
// what one flow contributes to a sum before the inverse rotation.
func refNativeRow(t *testing.T, asm *wire.RowAssembler) []float32 {
	t.Helper()
	enc, headAvail, tailAvail, err := asm.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	nd, err := quant.NewNativeDecoder(enc.Scheme, enc.P, enc.Q, enc.Scale, enc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float32, enc.N)
	for i := range out {
		if !headAvail[i] {
			continue
		}
		tc := 0
		if tailAvail[i] {
			tc = 1
		}
		if err := nd.PacketValues(out[i:i+1], i, enc.Heads[i:i+1], enc.Tails[i:i+1], tc); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSumDecoderMatchesSummedReferences: a SumDecoder over three flows
// against three separate reassembling decodes whose native-domain rows are
// added, per coordinate, in the order the flows' packets arrived, and
// finalized once — gradient bits and every Stats field. Each flow loses and
// has trimmed a different third of its packets; no packet comes twice (a
// sum counts what it is sent).
func TestSumDecoderMatchesSummedReferences(t *testing.T) {
	const nFlows = 3
	for _, p := range ingestSchemes {
		for _, tb := range ingestTailBits {
			p.TailBits = tb
			cfg := Config{Params: p, RowSize: ingestRowSize}
			var metas, data [nFlows][][]byte // per flow, what arrives of it
			refs := make([]*refDecoder, nFlows)
			n := 0
			for f := range refs {
				fcfg := cfg
				fcfg.Flow = uint32(f)
				m := encodeAwkward(t, fcfg, awkwardGrad(uint64(100+f)))
				n = m.n
				all := arrivals(t, m, uint64(200+f))["30% dropped"]
				metas[f], data[f] = all[:len(m.metas)], all[len(m.metas):]
				refs[f] = newRefDecoder(t, ingestMsg, fcfg, nil)
				for _, pkt := range all {
					if err := refs[f].Handle(pkt); err != nil {
						t.Fatal(err)
					}
				}
			}
			nRows := (n + ingestRowSize - 1) / ingestRowSize

			// One flow's native rows, finalized, are that flow's Codec decode:
			// the reference the sums below are built from is itself pinned.
			want := Stats{TotalCoords: nFlows * nRows * ingestRowSize}
			native := make([][][]float32, nFlows) // flow, row
			for f, ref := range refs {
				decoded, st, err := ref.Reconstruct(n)
				if err != nil {
					t.Fatal(err)
				}
				own := make([]float32, nRows*ingestRowSize)
				for r := 0; r < nRows; r++ {
					row := refNativeRow(t, ref.rows[uint32(r)])
					native[f] = append(native[f], row)
					dst := own[r*ingestRowSize:][:len(row)]
					copy(dst, row)
					if err := quant.FinalizeNative(p.Scheme, RowSeed(ingestEpoch, ingestMsg, uint32(r)), dst); err != nil {
						t.Fatal(err)
					}
				}
				requireSameBits(t, fmt.Sprintf("%v q=%d flow %d: finalized native rows vs Codec", p.Scheme, tb, f), own[:n], decoded)
				want.Packets += st.Packets
				want.TrimmedPackets += st.TrimmedPackets
				want.BytesReceived += st.BytesReceived
				want.ExpectedPackets += st.ExpectedPackets
				want.TrimmedCoords += st.TrimmedCoords
				want.DroppedCoords += nRows*ingestRowSize - (st.TotalCoords - st.DroppedCoords)
			}

			// Each order delivers every flow's packets so that, coordinate by
			// coordinate, contributions land in the flow order named.
			flowMajor, packetMajor, metaLast := [][]byte{}, [][]byte{}, [][]byte{}
			for f := 0; f < nFlows; f++ {
				flowMajor = append(append(flowMajor, metas[f]...), data[f]...)
				packetMajor = append(packetMajor, metas[f]...)
			}
			for j := 0; ; j++ {
				more := false
				for f := 0; f < nFlows; f++ {
					if j < len(data[f]) {
						packetMajor, more = append(packetMajor, data[f][j]), true
					}
				}
				if !more {
					break
				}
			}
			for f := 0; f < nFlows; f++ {
				metaLast = append(metaLast, data[f]...) // parked until the flow's scale arrives
			}
			for f := nFlows - 1; f >= 0; f-- {
				metaLast = append(metaLast, metas[f]...) // replayed flow by flow, last flow first
			}
			for _, order := range []struct {
				name  string
				pkts  [][]byte
				flows [nFlows]int
			}{
				{"flow by flow", flowMajor, [nFlows]int{0, 1, 2}},
				{"packet by packet", packetMajor, [nFlows]int{0, 1, 2}},
				{"meta last, flows reversed", metaLast, [nFlows]int{2, 1, 0}},
			} {
				label := fmt.Sprintf("%v q=%d %s", p.Scheme, tb, order.name)
				wantSum := make([]float32, nRows*ingestRowSize)
				for r := 0; r < nRows; r++ {
					acc := wantSum[r*ingestRowSize:][:len(native[0][r])]
					for _, f := range order.flows {
						_, headAvail, _, err := refs[f].rows[uint32(r)].Assemble()
						if err != nil {
							t.Fatal(err)
						}
						for i, v := range native[f][r] {
							if headAvail[i] {
								acc[i] += v
							}
						}
					}
					if err := quant.FinalizeNative(p.Scheme, RowSeed(ingestEpoch, ingestMsg, uint32(r)), acc); err != nil {
						t.Fatal(err)
					}
				}
				sd, err := NewSumDecoder(ingestMsg, nFlows, WithConfig(cfg))
				if err != nil {
					t.Fatal(err)
				}
				for i, pkt := range order.pkts {
					if err := sd.Handle(pkt); err != nil {
						t.Fatalf("%s: packet %d: %v", label, i, err)
					}
				}
				got, gotStats, err := sd.Reconstruct(n)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameBits(t, label, canonNaNs(got), canonNaNs(wantSum[:n]))
				if gotStats != want {
					t.Fatalf("%s: stats\n got %+v\nwant %+v", label, gotStats, want)
				}
			}
		}
	}
}

// BenchmarkDecoderIngest times the receive path up to Reconstruct: one
// decoder per iteration takes a 2^13-coordinate row's metadata and its 24
// data packets, all of them full or all of them head-trimmed, and is
// released. rht has the cheapest trimmed decode (a table lookup), sd the
// dearest (a dither draw per trimmed coordinate).
func BenchmarkDecoderIngest(b *testing.B) {
	for _, scheme := range []quant.Scheme{quant.RHT, quant.SD} {
		cfg := Config{Params: quant.Params{Scheme: scheme}, RowSize: 1 << 13}
		enc, err := NewEncoderWith(WithConfig(cfg))
		if err != nil {
			b.Fatal(err)
		}
		msg, err := enc.Encode(1, 1, gaussianGrad(95, cfg.RowSize))
		if err != nil {
			b.Fatal(err)
		}
		trimmed := make([][]byte, len(msg.Data))
		for i, pkt := range msg.Data {
			trimmed[i] = wire.Trim(bytes.Clone(pkt), 0)
		}
		for _, arm := range []struct {
			name string
			data [][]byte
		}{{"full", msg.Data}, {"trimmed", trimmed}} {
			b.Run(scheme.String()+"/"+arm.name, func(b *testing.B) {
				b.SetBytes(int64(cfg.RowSize) * 4)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dec, err := NewDecoderWith(1, WithConfig(cfg))
					if err != nil {
						b.Fatal(err)
					}
					if err := dec.Handle(msg.Meta[0]); err != nil {
						b.Fatal(err)
					}
					for _, pkt := range arm.data {
						if err := dec.Handle(pkt); err != nil {
							b.Fatal(err)
						}
					}
					dec.Release()
				}
			})
		}
	}
}
