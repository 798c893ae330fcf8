package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

// The decoders admit and park a packet as it arrives and decode it, with its
// row's others, straight into the output when the gradient is asked for.
// What that replaced — reassemble the row's bits with wire.RowAssembler, then
// decode the whole row with Codec.DecodeInto — stays as the public row-level
// API, and here as the reference the replaying path is pinned against bit for
// bit: gradient, every Stats field, every per-packet verdict and the obs
// export.

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
	var o options
	WithRegistry(reg)(&o)
	return &refDecoder{
		cfg: cfg, codec: quant.MustNew(cfg.Params), msgID: msgID,
		rows:    make(map[uint32]*wire.RowAssembler),
		pending: make(map[uint32][][]byte),
		obs:     o.decObs(),
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
	if dp.IsCut(len(pkt)) {
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
	codec, err := quant.New(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	half, err := codec.Encode(grad[last*ingestRowSize:], RowSeed(ingestEpoch, ingestMsg, last))
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
		{0xde, 0xad}, m.metas[0], late,
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
type foreignPackets struct{ seed, message, beyond []byte }

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
	return foreignPackets{
		seed:    rebuild(func(h *wire.Header) { h.Seed ^= 1 }),
		message: rebuild(func(h *wire.Header) { h.Message++ }),
		beyond:  rebuild(func(h *wire.Header) { h.Start = ingestRowSize - 10 }),
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
// finalized once — gradient bits and every Stats field, at every worker
// count. Each flow loses and has trimmed a different third of its packets;
// no packet comes twice (a sum counts what it is sent). A float32 sum is
// its order, so a SumDecoder has to preserve the arrival order its replay
// parallelises: the last order interleaves the flows packet by packet,
// stands switch-built aggregates of two and three inputs in for the packets
// they fold, and lets one flow's metadata land after its data. There the
// reference is serialSum, the arrival order spelled out, itself pinned to
// the flow-by-flow reference on the orders that have one.
func TestSumDecoderMatchesSummedReferences(t *testing.T) {
	const nFlows = 3
	var folded [4]int // aggregates the last order built, by input count
	defer func() {
		if folded[2] == 0 || folded[3] == 0 {
			t.Errorf("the aggregated orders folded %d pairs and %d triples: both kinds must occur", folded[2], folded[3])
		}
	}()
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
			wantByFlow := Stats{TotalCoords: nFlows * nRows * ingestRowSize}
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
				wantByFlow.Packets += st.Packets
				wantByFlow.TrimmedPackets += st.TrimmedPackets
				wantByFlow.BytesReceived += st.BytesReceived
				wantByFlow.ExpectedPackets += st.ExpectedPackets
				wantByFlow.TrimmedCoords += st.TrimmedCoords
				wantByFlow.DroppedCoords += nRows*ingestRowSize - (st.TotalCoords - st.DroppedCoords)
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
				flows []int // nil: no flow-by-flow reference, serialSum is it
			}{
				{"flow by flow", flowMajor, []int{0, 1, 2}},
				{"packet by packet", packetMajor, []int{0, 1, 2}},
				{"meta last, flows reversed", metaLast, []int{2, 1, 0}},
				{"aggregates between interleaved flows, one meta late", aggregatedOrder(t, p.Scheme, metas, data, &folded), nil},
			} {
				label := fmt.Sprintf("%v q=%d %s", p.Scheme, tb, order.name)
				// With a flow order, the reference is the flows' rows added in
				// it; without one, the arrival order spelled out.
				serial, serialStats := serialSum(t, cfg, nFlows, n, order.pkts)
				want, wantSum := serialStats, serial
				if order.flows != nil {
					want, wantSum = wantByFlow, make([]float32, nRows*ingestRowSize)
				}
				for r := 0; r < nRows && order.flows != nil; r++ {
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
				requireSameBits(t, label+": serialSum", canonNaNs(serial), canonNaNs(wantSum[:n]))
				if serialStats != want {
					t.Fatalf("%s: serialSum stats\n got %+v\nwant %+v", label, serialStats, want)
				}
				for _, workers := range replayWorkers {
					got, gotStats, err := sd.reconstruct(n, workers)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", label, workers, err)
					}
					requireSameBits(t, fmt.Sprintf("%s workers=%d", label, workers), canonNaNs(got), canonNaNs(wantSum[:n]))
					if gotStats != want {
						t.Fatalf("%s workers=%d: stats\n got %+v\nwant %+v", label, workers, gotStats, want)
					}
				}
			}
		}
	}
}

// aggregatedOrder delivers three flows the way an aggregating fabric might.
// Flows 0 and 1 send their metadata first; flow 2's lands after most of its
// data. Flow 0's packets then arrive one by one, each followed by one of flow
// 2's (parked until that metadata); where flow 1 — and, every other time,
// flow 2 — has a packet with the same key, a switch-built aggregate of the
// two or three stands in for them (counted in folded, by inputs). What was
// not folded follows.
func aggregatedOrder(t *testing.T, scheme quant.Scheme, metas, data [3][][]byte, folded *[4]int) [][]byte {
	t.Helper()
	scaleOf := func(flow, _, row uint32) (wire.MetaInfo, bool) {
		m, err := wire.ParseMetaPacket(metas[flow][row])
		return wire.MetaInfo{Scheme: scheme, Scale: m.Scale}, err == nil
	}
	type key struct{ row, start uint32 }
	keyOf := func(pkt []byte) key {
		h, err := wire.ParseHeader(pkt)
		if err != nil {
			t.Fatal(err)
		}
		return key{h.Row, h.Start}
	}
	byKey := [3]map[key][]byte{}
	for f := range data {
		byKey[f] = map[key][]byte{}
		for _, pkt := range data[f] {
			byKey[f][keyOf(pkt)] = pkt
		}
	}
	merge := func(a, b []byte) []byte {
		agg, err := wire.MergeTrimmable(a, b, scaleOf)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	out := append(append([][]byte{}, metas[0]...), metas[1]...)
	threeWay, next2 := false, 0
	emit2 := func() { // flow 2's next packet that no aggregate has folded
		for ; next2 < len(data[2]); next2++ {
			if k := keyOf(data[2][next2]); byKey[2][k] != nil {
				out = append(out, data[2][next2])
				delete(byKey[2], k)
				next2++
				return
			}
		}
	}
	for i, pkt := range data[0] {
		k := keyOf(pkt)
		if other := byKey[1][k]; other != nil {
			inputs := 2
			pkt = merge(pkt, other)
			delete(byKey[1], k)
			if third := byKey[2][k]; third != nil && threeWay {
				inputs, pkt = 3, merge(pkt, third)
				delete(byKey[2], k)
			}
			threeWay = !threeWay
			folded[inputs]++
		}
		out = append(out, pkt)
		if emit2(); i == len(data[0])*2/3 {
			out = append(out, metas[2]...)
		}
	}
	for _, pkt := range data[1] {
		if byKey[1][keyOf(pkt)] != nil {
			out = append(out, pkt)
		}
	}
	for next2 < len(data[2]) {
		emit2()
	}
	return out
}

// serialSum is the arrival order a SumDecoder preserves, spelled out on one
// goroutine: every packet is decoded and added to its row, coordinate by
// coordinate, as it is admitted — a flow's early data when its metadata
// lands, an aggregate's survivor prefix from T and the rest from S — and the
// rows are finalized once. It returns the sum and the Stats.
func serialSum(t *testing.T, cfg Config, nFlows, n int, pkts [][]byte) ([]float32, Stats) {
	t.Helper()
	type flowKey struct{ row, flow uint32 }
	p, q := cfg.Params.Widths()
	nRows := (n + cfg.RowSize - 1) / cfg.RowSize
	acc := make([]float32, nRows*cfg.RowSize)
	rowLen := make([]int, nRows)
	scales := map[flowKey]*wire.MetaPacket{}
	early := map[flowKey][][]byte{}
	var st Stats
	heads, tails := 0, 0
	add := func(pkt []byte) {
		dp, err := wire.ParseDataPacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		m := scales[flowKey{dp.Row, dp.Flow}]
		nd, err := quant.NewNativeDecoder(cfg.Params.Scheme, p, q, m.Scale, m.Seed)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float32, dp.Count)
		if err := nd.PacketValues(vals, int(dp.Start), dp.Heads, dp.Tails, dp.TailCount); err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			acc[int(dp.Row)*cfg.RowSize+int(dp.Start)+i] += v
		}
		st.Packets++
		st.BytesReceived += len(pkt)
		if dp.IsCut(len(pkt)) {
			st.TrimmedPackets++
		}
		heads, tails = heads+len(vals), tails+dp.TailCount
	}
	for _, pkt := range pkts {
		h, err := wire.ParseHeader(pkt)
		if err != nil {
			t.Fatal(err)
		}
		k := flowKey{h.Row, h.Flow}
		switch {
		case h.IsMeta():
			m, err := wire.ParseMetaPacket(pkt)
			if err != nil {
				t.Fatal(err)
			}
			scales[k], rowLen[h.Row] = m, int(m.N)
			for _, e := range early[k] {
				add(e)
			}
			delete(early, k)
		case h.IsAgg():
			ap, err := wire.ParseAggPacket(pkt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ap.Sums {
				v := ap.Sums[i]
				if i < ap.TailCount {
					v = ap.TailSums[i]
				}
				acc[int(h.Row)*cfg.RowSize+int(h.Start)+i] += v
			}
			st.Packets += int(ap.Flow)
			st.BytesReceived += len(pkt)
			if ap.IsCut(len(pkt)) {
				st.TrimmedPackets += int(ap.Flow)
			}
			heads, tails = heads+int(ap.Flow)*len(ap.Sums), tails+int(ap.Flow)*ap.TailCount
		case scales[k] == nil:
			early[k] = append(early[k], pkt)
		default:
			add(pkt)
		}
	}
	perPacket := wire.CoordsPerPacket(p, q)
	for r, rn := range rowLen {
		if err := quant.FinalizeNative(cfg.Params.Scheme, RowSeed(ingestEpoch, ingestMsg, uint32(r)), acc[r*cfg.RowSize:][:rn]); err != nil {
			t.Fatal(err)
		}
		st.ExpectedPackets += nFlows * ((rn + perPacket - 1) / perPacket)
	}
	st.TotalCoords = nFlows * len(acc)
	st.TrimmedCoords, st.DroppedCoords = heads-tails, st.TotalCoords-heads
	return acc[:n], st
}

// BenchmarkDecoderIngest times the receive path in its two halves: one
// decoder per iteration is handed an eight-row message (2^13-coordinate
// rows, 24 data packets each, all of them full or all of them head-trimmed)
// — handle_ns/pkt, the serial admission — and then decodes it on one worker
// and on all cores — reconstruct_ns/pkt, the row replay — and is released.
// rht has the cheapest trimmed decode (a table lookup), sd the dearest (a
// dither draw per trimmed coordinate).
func BenchmarkDecoderIngest(b *testing.B) {
	const nRows = 8
	for _, scheme := range []quant.Scheme{quant.RHT, quant.SD} {
		cfg := Config{Params: quant.Params{Scheme: scheme}, RowSize: 1 << 13}
		enc, err := NewEncoderWith(WithConfig(cfg))
		if err != nil {
			b.Fatal(err)
		}
		msg, err := enc.Encode(1, 1, gaussianGrad(95, nRows*cfg.RowSize))
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
			for _, workers := range []int{1, 0} {
				b.Run(fmt.Sprintf("%v/%s/workers=%d", scheme, arm.name, workers), func(b *testing.B) {
					b.SetBytes(int64(msg.N) * 4)
					b.ReportAllocs()
					var handle, reconstruct time.Duration
					for i := 0; i < b.N; i++ {
						dec, err := NewDecoderWith(1, WithConfig(cfg))
						if err != nil {
							b.Fatal(err)
						}
						t0 := time.Now()
						for _, pkts := range [][][]byte{msg.Meta, arm.data} {
							for _, pkt := range pkts {
								if err := dec.Handle(pkt); err != nil {
									b.Fatal(err)
								}
							}
						}
						t1 := time.Now()
						if _, _, err := dec.DecodeParallel(msg.N, workers); err != nil {
							b.Fatal(err)
						}
						handle, reconstruct = handle+t1.Sub(t0), reconstruct+time.Since(t1)
						dec.Release()
					}
					perPkt := float64(b.N * len(arm.data))
					b.ReportMetric(float64(handle.Nanoseconds())/perPkt, "handle_ns/pkt")
					b.ReportMetric(float64(reconstruct.Nanoseconds())/perPkt, "reconstruct_ns/pkt")
				})
			}
		}
	}
}
