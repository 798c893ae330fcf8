package wire

import (
	"errors"
	"reflect"
	"testing"

	"trimgrad/internal/quant"
)

// The receive path has one source of truth: every accept/reject decision
// lives in a check function that Validate calls alone and Parse*Packet /
// Unpack / AddDataBytes call before unpacking. These tests pin that the
// entry points cannot drift apart and that the verify-only path is free.

// errClass maps err to the sentinel it wraps (nil for nil, errUnclassed
// for the plain geometry errors that wrap none).
func errClass(err error) error {
	if err == nil {
		return nil
	}
	for _, c := range []error{
		ErrTooShort, ErrBadMagic, ErrBadVersion, ErrBadChecksum,
		ErrNotMeta, ErrNotData, ErrNotNaive, ErrNotAgg,
	} {
		if errors.Is(err, c) {
			return c
		}
	}
	return errUnclassed
}

var errUnclassed = errors.New("unclassed")

// parseAsClaimed parses buf with the parser of the kind its flags claim —
// the dispatch Validate documents.
func parseAsClaimed(buf []byte) error {
	h, err := ParseHeader(buf)
	if err != nil {
		return err
	}
	switch {
	case h.IsMeta():
		_, err = ParseMetaPacket(buf)
	case h.IsNaive():
		_, err = ParseNaivePacket(buf)
	case h.IsAgg():
		_, err = ParseAggPacket(buf)
	default:
		_, err = ParseDataPacket(buf)
	}
	return err
}

// FuzzValidateMatchesParse: for every packet kind, Validate(buf) == nil
// exactly when the kind's parser succeeds, with the same error class when
// it does not; and for data packets the three unpacking entry points
// (fresh parse, Unpack into dirty scratch, AddDataBytes) agree with
// CheckDataPacket and with each other.
func FuzzValidateMatchesParse(f *testing.F) {
	seedPackets(f)
	sums := randSums(1, 16)
	for _, tails := range [][]float32{sums, sums[:5]} {
		agg, err := BuildAggPacket(aggTestHeader(16, 2), sums, tails)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(agg)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		verr, perr := Validate(data), parseAsClaimed(data)
		if errClass(verr) != errClass(perr) {
			t.Fatalf("Validate = %v, parse = %v", verr, perr)
		}

		h, tailCount, cerr := CheckDataPacket(data)
		fresh, perr := ParseDataPacket(data)
		if errClass(cerr) != errClass(perr) {
			t.Fatalf("CheckDataPacket = %v, ParseDataPacket = %v", cerr, perr)
		}
		if perr != nil {
			return
		}
		if fresh.Header != h || fresh.TailCount != tailCount {
			t.Fatalf("check (%+v, %d) != parse (%+v, %d)", h, tailCount, fresh.Header, fresh.TailCount)
		}
		scratch := DataPacket{Heads: dirty(int(h.Count) + 3), Tails: dirty(int(h.Count) + 3)}
		if err := scratch.Unpack(data); err != nil {
			t.Fatalf("Unpack rejected what ParseDataPacket accepted: %v", err)
		}
		if !reflect.DeepEqual(scratch.Heads, fresh.Heads) ||
			!reflect.DeepEqual(scratch.Tails[:tailCount], fresh.Tails[:tailCount]) ||
			scratch.Header != fresh.Header || scratch.TailCount != tailCount {
			t.Fatal("Unpack into dirty scratch differs from a fresh parse")
		}
		if int(h.Start)+int(h.Count) <= 1<<16 {
			two, direct := assemblerFor(&h), assemblerFor(&h)
			if err := two.AddData(fresh); err != nil {
				t.Fatal(err)
			}
			if _, err := direct.AddDataBytes(data); err != nil {
				t.Fatal(err)
			}
			requireSameAssembly(t, two, direct)
		}
	})
}

func dirty(n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = 0xFFFFFFFF
	}
	return s
}

// assemblerFor returns an assembler whose metadata matches h and whose row
// is just long enough to hold h's range.
func assemblerFor(h *Header) *RowAssembler {
	a := NewRowAssembler()
	m := &MetaPacket{Header: *h, Scheme: uint8(quant.Sign), N: h.Start + uint32(h.Count)}
	if err := a.AddMeta(m); err != nil {
		panic(err)
	}
	return a
}

func requireSameAssembly(t *testing.T, want, got *RowAssembler) {
	t.Helper()
	we, wh, wt, err := want.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ge, gh, gt, err := got.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(we, ge) || !reflect.DeepEqual(wh, gh) || !reflect.DeepEqual(wt, gt) {
		t.Fatal("AddDataBytes assembled a different row than ParseDataPacket+AddData")
	}
	if want.Received() != got.Received() || want.Complete() != got.Complete() {
		t.Fatalf("Received/Complete = %d/%v, want %d/%v",
			got.Received(), got.Complete(), want.Received(), want.Complete())
	}
}

// TestValidateAllocatesNothing: admission is CRC-only for every trim state
// of a data packet and for the other three kinds.
func TestValidateAllocatesNothing(t *testing.T) {
	const count = 354
	heads, tails := randHeadsTails(5, count, 1, 31)
	h := testHeader(count, 1, 31)
	full, err := BuildDataPacket(h, heads, tails)
	if err != nil {
		t.Fatal(err)
	}
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	naive, err := BuildNaivePacket(h, []float32{1, -2, 3})
	if err != nil {
		t.Fatal(err)
	}
	sums := randSums(2, 16)
	agg, err := BuildAggPacket(aggTestHeader(16, 2), sums, sums[:5])
	if err != nil {
		t.Fatal(err)
	}
	for name, pkt := range map[string][]byte{
		"full":             full,
		"head-trimmed":     Trim(clone(full), 0),
		"mid-tail-trimmed": Trim(clone(full), h.TrimmedSize()+500),
		"meta":             BuildMetaPacket(h, 3, 1024, 2.5),
		"naive":            naive,
		"trimmed-agg":      agg,
	} {
		if err := Validate(pkt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = Validate(pkt) }); n != 0 {
			t.Errorf("%s: Validate allocates %v times per call, want 0", name, n)
		}
	}
	if _, tc, _ := CheckDataPacket(Trim(clone(full), h.TrimmedSize()+500)); tc <= 0 || tc >= count {
		t.Fatalf("mid-tail trim kept %d of %d tails; the case is not mid-tail", tc, count)
	}
}

// TestAddDataBytesMatchesParseAddData drives both ingestion forms with the
// same packet sequence — full, head-trimmed, mid-tail-trimmed, duplicates
// in both orders (a trimmed duplicate must not erase tails a full copy
// delivered), corrupt, foreign-seed and out-of-range packets — and
// requires identical verdicts per packet and an identical row at the end.
func TestAddDataBytesMatchesParseAddData(t *testing.T) {
	c := quant.MustNew(quant.Params{Scheme: quant.Sign})
	enc, err := c.Encode(gaussianRow(9, 1500), 1)
	if err != nil {
		t.Fatal(err)
	}
	meta, data, err := PackRow(1, 2, 3, enc)
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.Encode(gaussianRow(9, 1500), 2) // same geometry, different seed
	if err != nil {
		t.Fatal(err)
	}
	_, foreign, err := PackRow(1, 2, 3, other)
	if err != nil {
		t.Fatal(err)
	}
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	h0, err := ParseHeader(data[0])
	if err != nil {
		t.Fatal(err)
	}
	beyond := h0
	beyond.Start = uint32(enc.N) - 10 // a valid packet whose range overruns the row
	heads, tails := randHeadsTails(3, int(h0.Count), int(h0.P), int(h0.Q))
	outOfRange, err := BuildDataPacket(beyond, heads, tails)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := clone(data[1])
	corrupt[HeaderSize+2] ^= 0x10

	seq := []struct {
		name string
		pkt  []byte
		ok   bool
	}{
		{"full", data[0], true},
		{"head-trimmed duplicate of a full packet", Trim(clone(data[0]), 0), true},
		{"head-trimmed", Trim(clone(data[1]), 0), true},
		{"full duplicate of a trimmed packet", data[1], true},
		{"mid-tail-trimmed", Trim(clone(data[2]), h0.TrimmedSize()+300), true},
		{"corrupt", corrupt, false},
		{"foreign seed", foreign[3], false},
		{"out of range", outOfRange, false},
		{"metadata", meta, false},
		{"short final packet", data[len(data)-1], true},
	}

	m, err := ParseMetaPacket(meta)
	if err != nil {
		t.Fatal(err)
	}
	two, direct := NewRowAssembler(), NewRowAssembler()
	if _, err := direct.AddDataBytes(data[0]); err == nil {
		t.Fatal("AddDataBytes before metadata must fail")
	}
	for _, a := range []*RowAssembler{two, direct} {
		if err := a.AddMeta(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range seq {
		dp, err := ParseDataPacket(s.pkt)
		if err == nil {
			err = two.AddData(dp)
		}
		h, derr := direct.AddDataBytes(s.pkt)
		if (err == nil) != s.ok || (derr == nil) != s.ok {
			t.Fatalf("%s: parse+AddData = %v, AddDataBytes = %v, want ok=%v", s.name, err, derr, s.ok)
		}
		if derr == nil && h != dp.Header {
			t.Fatalf("%s: AddDataBytes returned header %+v, want %+v", s.name, h, dp.Header)
		}
		requireSameAssembly(t, two, direct)
	}
	if direct.Complete() {
		t.Fatal("row reported complete with packets missing")
	}
	for _, pkt := range data {
		if _, err := direct.AddDataBytes(pkt); err != nil {
			t.Fatal(err)
		}
	}
	if !direct.Complete() {
		t.Fatal("row not complete after every packet arrived")
	}
	got, _, tailAvail, err := direct.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Heads, enc.Heads) || !reflect.DeepEqual(got.Tails, enc.Tails) {
		t.Fatal("fully delivered row differs from what was packed")
	}
	for i, ok := range tailAvail {
		if !ok {
			t.Fatalf("tail %d unavailable after full delivery", i)
		}
	}
}
