package wire

import (
	"testing"
	"testing/quick"

	"trimgrad/internal/quant"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

func gaussianRow(seed uint64, n int) []float32 {
	r := xrand.New(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64() * 0.05)
	}
	return v
}

// sendRow encodes, packs, applies perPacket to each data packet (nil means
// deliver verbatim; returning nil drops the packet), reassembles, decodes.
func sendRow(t *testing.T, c quant.Codec, row []float32, seed uint64,
	perPacket func(i int, pkt []byte) []byte) []float32 {
	t.Helper()
	enc, err := c.Encode(row, seed)
	if err != nil {
		t.Fatal(err)
	}
	meta, data, err := PackRow(1, 2, 3, enc)
	if err != nil {
		t.Fatal(err)
	}
	asm := NewRowAssembler()
	m, err := ParseMetaPacket(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := asm.AddMeta(m); err != nil {
		t.Fatal(err)
	}
	for i, pkt := range data {
		if perPacket != nil {
			pkt = perPacket(i, pkt)
			if pkt == nil {
				continue
			}
		}
		dp, err := ParseDataPacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if err := asm.AddData(dp); err != nil {
			t.Fatal(err)
		}
	}
	got, headAvail, tailAvail, err := asm.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decode(got, headAvail, tailAvail)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestPackRowRoundTripAllSchemes(t *testing.T) {
	row := gaussianRow(1, 1<<12)
	codecs := []quant.Codec{
		quant.MustNew(quant.Params{Scheme: quant.Sign}),
		quant.MustNew(quant.Params{Scheme: quant.SQ}),
		quant.MustNew(quant.Params{Scheme: quant.SD}),
		quant.MustNew(quant.Params{Scheme: quant.RHT}),
		quant.MustNew(quant.Params{Scheme: quant.Linear, P: 8}),
		quant.MustNew(quant.Params{Scheme: quant.RHTLinear, P: 8}),
	}
	for _, c := range codecs {
		dec := sendRow(t, c, row, 99, nil)
		nm := vecmath.NMSE(row, dec)
		if nm > 1e-8 {
			t.Errorf("%s: untrimmed wire round trip NMSE = %g", c.Name(), nm)
		}
	}
}

func TestPackRowPacketCount(t *testing.T) {
	c := quant.MustNew(quant.Params{Scheme: quant.Sign})
	row := gaussianRow(2, 1000)
	enc, _ := c.Encode(row, 1)
	meta, data, err := PackRow(1, 2, 3, enc)
	if err != nil {
		t.Fatal(err)
	}
	per := CoordsPerPacket(1, 31)
	want := (1000 + per - 1) / per
	if len(data) != want {
		t.Errorf("packets = %d, want %d", len(data), want)
	}
	if len(meta) != MetaSize {
		t.Errorf("meta size = %d", len(meta))
	}
	// Every full-size packet fits the MTU budget.
	for i, pkt := range data {
		if len(pkt) > MaxPayload {
			t.Errorf("packet %d size %d exceeds MaxPayload", i, len(pkt))
		}
	}
}

// TestRowLayout: RowLayout is what PackRow cuts a row into, packets and
// bytes, at every width pair and at row lengths that end on a packet
// boundary and between two; codec_exchange's 2^13-coordinate sign rows are
// 24 packets of 33 752 bytes together. PackRowInto refuses memory of any
// other shape.
func TestRowLayout(t *testing.T) {
	if packets, bytes := RowLayout(1<<13, 1, 31); packets != 24 || bytes != 33752 {
		t.Errorf("RowLayout(2^13, 1, 31) = %d packets, %d bytes; want 24, 33 752", packets, bytes)
	}
	for _, p := range []quant.Params{
		{Scheme: quant.Sign}, {Scheme: quant.SQ, TailBits: 12}, {Scheme: quant.RHT, TailBits: 1},
		{Scheme: quant.Linear, P: 4}, {Scheme: quant.RHTLinear, P: 8}, {Scheme: quant.Eden, P: 2, TailBits: 5},
	} {
		c := quant.MustNew(p)
		hp, hq := p.Widths()
		for _, n := range []int{1, CoordsPerPacket(hp, hq), 3 * CoordsPerPacket(hp, hq), 1000, 1 << 11} {
			if !vecmath.IsPow2(n) && (p.Scheme == quant.RHT || p.Scheme == quant.RHTLinear || p.Scheme == quant.Eden) {
				continue
			}
			enc, err := c.Encode(gaussianRow(3, n), 1)
			if err != nil {
				t.Fatal(err)
			}
			_, data, err := PackRow(1, 2, 3, enc)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, pkt := range data {
				total += len(pkt)
			}
			packets, bytes := RowLayout(n, hp, hq)
			if packets != len(data) || bytes != total {
				t.Errorf("%v n=%d: RowLayout = %d packets, %d bytes; PackRow made %d, %d", p.Scheme, n, packets, bytes, len(data), total)
			}
			if _, err := PackRowInto(1, 2, 3, enc, make([][]byte, packets), make([]byte, bytes+1)); err == nil {
				t.Errorf("%v n=%d: PackRowInto took a slab one byte long", p.Scheme, n)
			}
			if _, err := PackRowInto(1, 2, 3, enc, make([][]byte, packets+1), make([]byte, bytes)); err == nil {
				t.Errorf("%v n=%d: PackRowInto took one packet slot too many", p.Scheme, n)
			}
		}
	}
}

func TestTrimmedDeliveryDecodesFromHeads(t *testing.T) {
	row := gaussianRow(3, 1<<12)
	c := quant.MustNew(quant.Params{Scheme: quant.RHT})
	// Trim every packet at the switch.
	dec := sendRow(t, c, row, 5, func(_ int, pkt []byte) []byte {
		return Trim(pkt, 0)
	})
	cos := vecmath.CosineSimilarity(row, dec)
	if cos < 0.7 {
		t.Errorf("fully trimmed RHT delivery cosine = %v", cos)
	}
	nm := vecmath.NMSE(row, dec)
	if nm > 0.8 {
		t.Errorf("fully trimmed RHT delivery NMSE = %v", nm)
	}
}

func TestPartialTrimmedDelivery(t *testing.T) {
	row := gaussianRow(4, 1<<12)
	c := quant.MustNew(quant.Params{Scheme: quant.Sign})
	r := xrand.New(7)
	trims := 0
	dec := sendRow(t, c, row, 5, func(_ int, pkt []byte) []byte {
		if r.Float64() < 0.5 {
			trims++
			return Trim(pkt, 0)
		}
		return pkt
	})
	if trims == 0 {
		t.Skip("no packets trimmed by chance")
	}
	// Untrimmed coordinates must be exact; compute NMSE only overall.
	nm := vecmath.NMSE(row, dec)
	if nm <= 0 || nm > 1 {
		t.Errorf("partial trim NMSE = %v out of expected range", nm)
	}
}

func TestDroppedPacketDelivery(t *testing.T) {
	row := gaussianRow(5, 1<<12)
	c := quant.MustNew(quant.Params{Scheme: quant.SQ})
	dec := sendRow(t, c, row, 5, func(i int, pkt []byte) []byte {
		if i == 0 {
			return nil // drop the first packet entirely
		}
		return pkt
	})
	per := CoordsPerPacket(1, 31)
	// Dropped packet's coordinates decode to 0.
	for i := 0; i < per; i++ {
		if dec[i] != 0 {
			t.Fatalf("dropped coord %d = %v, want 0", i, dec[i])
		}
	}
	// Remaining coordinates are exact (within tail precision).
	rest := vecmath.NMSE(row[per:], dec[per:])
	if rest > 1e-8 {
		t.Errorf("surviving coords NMSE = %g", rest)
	}
}

func TestAssemblerStateMachine(t *testing.T) {
	c := quant.MustNew(quant.Params{Scheme: quant.Sign})
	row := gaussianRow(6, 500)
	enc, _ := c.Encode(row, 1)
	meta, data, _ := PackRow(1, 2, 3, enc)

	asm := NewRowAssembler()
	dp, _ := ParseDataPacket(data[0])
	if err := asm.AddData(dp); err == nil {
		t.Error("data before meta should fail")
	}
	if _, _, _, err := asm.Assemble(); err == nil {
		t.Error("assemble before meta should fail")
	}
	m, _ := ParseMetaPacket(meta)
	if err := asm.AddMeta(m); err != nil {
		t.Fatal(err)
	}
	if err := asm.AddMeta(m); err != nil {
		t.Error("duplicate meta should be benign")
	}
	if asm.Complete() {
		t.Error("complete before any data")
	}
	if asm.ExpectedPackets() != len(data) {
		t.Errorf("ExpectedPackets = %d, want %d", asm.ExpectedPackets(), len(data))
	}
	for _, pkt := range data {
		dp, _ := ParseDataPacket(pkt)
		if err := asm.AddData(dp); err != nil {
			t.Fatal(err)
		}
	}
	if !asm.Complete() {
		t.Error("should be complete")
	}
	if asm.Received() != len(data) {
		t.Errorf("Received = %d", asm.Received())
	}
	// Duplicate data delivery is idempotent.
	dp2, _ := ParseDataPacket(data[0])
	if err := asm.AddData(dp2); err != nil {
		t.Error("duplicate data should be accepted")
	}
	got, _, _, _ := asm.Assemble()
	dec, _ := c.Decode(got, nil, nil)
	if nm := vecmath.NMSE(row, dec); nm > 1e-10 {
		t.Errorf("NMSE after duplicates = %g", nm)
	}
}

func TestAssemblerRejectsMismatchedPackets(t *testing.T) {
	c := quant.MustNew(quant.Params{Scheme: quant.Sign})
	rowA := gaussianRow(7, 500)
	encA, _ := c.Encode(rowA, 1)
	encB, _ := c.Encode(rowA, 2) // different seed
	metaA, _, _ := PackRow(1, 2, 3, encA)
	_, dataB, _ := PackRow(1, 2, 3, encB)

	asm := NewRowAssembler()
	m, _ := ParseMetaPacket(metaA)
	asm.AddMeta(m)
	dp, _ := ParseDataPacket(dataB[0])
	if err := asm.AddData(dp); err == nil {
		t.Error("mismatched seed should be rejected")
	}
}

func TestAssemblerRejectsOutOfRange(t *testing.T) {
	c := quant.MustNew(quant.Params{Scheme: quant.Sign})
	row := gaussianRow(8, 100)
	enc, _ := c.Encode(row, 1)
	meta, data, _ := PackRow(1, 2, 3, enc)
	asm := NewRowAssembler()
	m, _ := ParseMetaPacket(meta)
	asm.AddMeta(m)
	dp, _ := ParseDataPacket(data[0])
	dp.Start = 90 // 90+100 > 100
	if err := asm.AddData(dp); err == nil {
		t.Error("out-of-range packet should be rejected")
	}
}

func TestQuickWireRoundTrip(t *testing.T) {
	c := quant.MustNew(quant.Params{Scheme: quant.Sign})
	f := func(seed uint64, sz uint16) bool {
		n := int(sz%2000) + 1
		row := gaussianRow(seed, n)
		enc, err := c.Encode(row, seed)
		if err != nil {
			return false
		}
		meta, data, err := PackRow(1, 2, 3, enc)
		if err != nil {
			return false
		}
		asm := NewRowAssembler()
		m, err := ParseMetaPacket(meta)
		if err != nil {
			return false
		}
		asm.AddMeta(m)
		for _, pkt := range data {
			dp, err := ParseDataPacket(pkt)
			if err != nil {
				return false
			}
			if err := asm.AddData(dp); err != nil {
				return false
			}
		}
		if !asm.Complete() {
			return false
		}
		got, ha, ta, err := asm.Assemble()
		if err != nil {
			return false
		}
		dec, err := c.Decode(got, ha, ta)
		if err != nil {
			return false
		}
		return vecmath.NMSE(row, dec) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuildDataPacket(b *testing.B) {
	n := CoordsPerPacket(1, 31)
	heads, tails := randHeadsTails(1, n, 1, 31)
	h := testHeader(uint16(n), 1, 31)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildDataPacket(h, heads, tails); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrim(b *testing.B) {
	n := CoordsPerPacket(1, 31)
	heads, tails := randHeadsTails(1, n, 1, 31)
	h := testHeader(uint16(n), 1, 31)
	pkt, _ := BuildDataPacket(h, heads, tails)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Trim(pkt, 0)
	}
}
