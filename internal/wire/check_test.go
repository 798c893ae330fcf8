package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"trimgrad/internal/quant"
)

// The receive path has one source of truth: every accept/reject decision
// lives in a check function that Validate calls alone and Parse*Packet /
// Unpack call before unpacking. These tests pin that the entry points
// cannot drift apart and that the verify-only path is free.

// errClass maps err to the sentinel it wraps (nil for nil, errUnclassed
// for the plain geometry errors that wrap none).
func errClass(err error) error {
	if err == nil {
		return nil
	}
	for _, c := range []error{
		ErrTooShort, ErrBadMagic, ErrBadVersion, ErrBadFlags, ErrBadChecksum,
		ErrNotMeta, ErrNotData, ErrNotAgg,
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
	case h.IsAgg():
		_, err = ParseAggPacket(buf)
	default:
		_, err = ParseDataPacket(buf)
	}
	return err
}

// FuzzValidateMatchesParse: for every packet kind, Validate(buf) succeeds
// exactly when the kind's parser does, with the same error class when it
// does not, and returns the header ParseHeader reads; and for data packets the two unpacking entry points (fresh
// parse, Unpack into dirty scratch) agree with CheckDataPacket and with
// each other.
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
		vh, verr := Validate(data)
		if perr := parseAsClaimed(data); errClass(verr) != errClass(perr) {
			t.Fatalf("Validate = %v, parse = %v", verr, perr)
		}
		if ph, _ := ParseHeader(data); verr == nil && vh != ph {
			t.Fatalf("Validate returned %+v, ParseHeader reads %+v", vh, ph)
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
	})
}

func dirty(n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = 0xFFFFFFFF
	}
	return s
}

// TestValidateAllocatesNothing: admission is CRC-only for every trim state
// of a data packet and for the other two kinds.
func TestValidateAllocatesNothing(t *testing.T) {
	const count = 354
	heads, tails := randHeadsTails(5, count, 1, 31)
	h := testHeader(count, 1, 31)
	full, err := BuildDataPacket(h, heads, tails)
	if err != nil {
		t.Fatal(err)
	}
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
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
		"trimmed-agg":      agg,
	} {
		if _, err := Validate(pkt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = Validate(pkt) }); n != 0 {
			t.Errorf("%s: Validate allocates %v times per call, want 0", name, n)
		}
	}
	if _, tc, _ := CheckDataPacket(Trim(clone(full), h.TrimmedSize()+500)); tc <= 0 || tc >= count {
		t.Fatalf("mid-tail trim kept %d of %d tails; the case is not mid-tail", tc, count)
	}
}

// checkTails runs the check of the kind buf's header claims and returns its
// tail count: the surviving whole tails of a data packet or aggregate.
func checkTails(buf []byte) (int, error) {
	h, err := ParseHeader(buf)
	if err != nil {
		return 0, err
	}
	if h.IsAgg() {
		return checkAgg(buf, &h)
	}
	return checkData(buf, &h)
}

// checkField fails t unless the field called name reads want.
func checkField[T comparable](t *testing.T, name string, got, want T) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// cutGoldens are cut data packets as a trimming switch forwards them: the
// first bytes of what PackRow(1, 2, 3, …) builds from gaussianRow(17, 8)
// encoded with seed 5, cut by Trim to their three first whole tails. The
// header is the sender's, tail CRC included.
var cutGoldens = []struct {
	params       quant.Params
	hex          string
	p, q         uint8
	heads, tails []uint32
}{
	{quant.Params{Scheme: quant.Sign},
		"54470100000000010000000200000003000000000008011f00000000000000057fb9589abecfd9d2037ab68366f610c7b1e05c173b",
		1, 31, []uint32{0, 0, 0, 0, 0, 0, 1, 1}, []uint32{0x3d5b41b3, 0x3d8431ec, 0x3c0b82e7}},
	{quant.Params{Scheme: quant.SQ},
		"54470100000000010000000200000003000000000008011f00000000000000054f5a112bcf49b960333d5b41b27b0863d8f02e0b99",
		1, 31, []uint32{0, 0, 1, 1, 0, 0, 1, 1}, []uint32{0x1eada0d9, 0x1ec218f6, 0x1e05c173}},
	{quant.Params{Scheme: quant.SD},
		"54470100000000010000000200000003000000000008011f00000000000000058dd2db99cf49b960023d5b41b27b0863d8f02e0b99",
		1, 31, []uint32{0, 0, 0, 0, 0, 0, 1, 0}, []uint32{0x1eada0d9, 0x1ec218f6, 0x1e05c173}},
	{quant.Params{Scheme: quant.RHT},
		"54470100000000010000000200000003000000000008011f0000000000000005eb0dcdbb744a15ccb57a730feef4ec2b29ccc2deab",
		1, 31, []uint32{1, 0, 1, 1, 0, 1, 0, 1}, []uint32{0x3d3987f7, 0x3d3b0aca, 0x39985bd5}},
	{quant.Params{Scheme: quant.Linear, P: 6},
		"54470100000000010000000200000003000000000008061a0000000000000005e708995dee89633cb708a59b968d3d5b418f610c73c0b82c",
		6, 26, []uint32{0x2d, 0x30, 0x22, 0x25, 0x26, 0x39, 0x1a, 0x0d}, []uint32{0xf56d06, 0xf610c7, 0xf02e0b}},
	{quant.Params{Scheme: quant.RHTLinear, P: 3},
		"54470100000000010000000200000003000000000008031d0000000000000005dc10f5f421c2fa4071ba61bd3987f1e9d8566e6616f5",
		3, 29, []uint32{3, 4, 3, 3, 5, 1, 4, 1}, []uint32{0x17a730fe, 0x07a76159, 0x17330b7a}},
	{quant.Params{Scheme: quant.Eden, P: 2},
		"54470100000000010000000200000003000000000008021e0000000000000005396daec406e1cb1d8a33bd3987f4f4ec2b2b9985bd6f",
		2, 30, []uint32{2, 0, 2, 2, 0, 3, 0, 3}, []uint32{0x2f4e61fd, 0x0f4ec2b2, 0x2e6616f5}},
}

// aggCutGolden is the aggregate BuildAggPacket makes of two inputs (Flow
// 3 counts them; Message 2, Row 3, Start 0, Seed 5) with sums {1, -2, 3.5,
// 0.25, 8, -0.125, 6, 7} and full-precision sums {1.5, -2.25, 3, 0.5, 8.5,
// -1, 6.25, 7.75}, cut by Trim to three full-precision sums.
const aggCutGolden = "5447010800000003000000020000000300000000000820200000000000000005c1775d00015c0b533f800000c0000000406000003e80000041000000be00000040c0000040e000003fc00000c010000040400000"

// TestCutPacketGolden pins the cut wire format the way a captured packet
// pins a protocol: each golden is read through ParseHeader, Validate and
// the kind's check and unpack, with every field checked by name, and must
// be what today's builders and Trim produce, so a change to the format or
// an encoder shows here. A cut reads as cut (IsCut).
func TestCutPacketGolden(t *testing.T) {
	row := gaussianRow(17, 8)
	for _, g := range cutGoldens {
		c := quant.MustNew(g.params)
		name := c.Name()
		buf, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := c.Encode(row, 5)
		if err != nil {
			t.Fatal(err)
		}
		_, data, err := PackRow(1, 2, 3, enc)
		if err != nil {
			t.Fatal(err)
		}
		if built := Trim(data[0], len(buf)); !bytes.Equal(built, buf) {
			t.Errorf("%s: PackRow cut by Trim reads %x, want the golden", name, built)
		}
		h, err := ParseHeader(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkField(t, name+" Flags", h.Flags, 0)
		checkField(t, name+" Flow", h.Flow, 1)
		checkField(t, name+" Message", h.Message, 2)
		checkField(t, name+" Row", h.Row, 3)
		checkField(t, name+" Start", h.Start, 0)
		checkField(t, name+" Count", h.Count, 8)
		checkField(t, name+" P", h.P, g.p)
		checkField(t, name+" Q", h.Q, g.q)
		checkField(t, name+" Seed", h.Seed, 5)
		checkField(t, name+" IsCut", h.IsCut(len(buf)), true)
		vh, err := Validate(buf)
		checkField(t, name+" Validate", err, nil)
		checkField(t, name+" Validate header", vh, h)
		_, tailCount, err := CheckDataPacket(buf)
		checkField(t, name+" CheckDataPacket", err, nil)
		checkField(t, name+" tailCount", tailCount, len(g.tails))
		heads, tails := make([]uint32, h.Count), make([]uint32, h.Count)
		UnpackData(buf, int(h.P), int(h.Q), int(h.Count), tailCount, heads, tails)
		for i, want := range g.heads {
			checkField(t, fmt.Sprintf("%s heads[%d]", name, i), heads[i], want)
		}
		for i, want := range g.tails {
			checkField(t, fmt.Sprintf("%s tails[%d]", name, i), tails[i], want)
		}
	}

	buf, err := hex.DecodeString(aggCutGolden)
	if err != nil {
		t.Fatal(err)
	}
	sums := []float32{1, -2, 3.5, 0.25, 8, -0.125, 6, 7}
	full, err := BuildAggPacket(Header{Flow: 3, Message: 2, Row: 3, Seed: 5, Count: 8}, sums,
		[]float32{1.5, -2.25, 3, 0.5, 8.5, -1, 6.25, 7.75})
	if err != nil {
		t.Fatal(err)
	}
	if built := Trim(full, len(buf)); !bytes.Equal(built, buf) {
		t.Errorf("aggregate: BuildAggPacket cut by Trim reads %x, want the golden", built)
	}
	h, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkField(t, "agg Flags", h.Flags, FlagAgg)
	checkField(t, "agg Flow", h.Flow, 3)
	checkField(t, "agg Message", h.Message, 2)
	checkField(t, "agg Row", h.Row, 3)
	checkField(t, "agg Start", h.Start, 0)
	checkField(t, "agg Count", h.Count, 8)
	checkField(t, "agg P", h.P, 32)
	checkField(t, "agg Q", h.Q, 32)
	checkField(t, "agg Seed", h.Seed, 5)
	checkField(t, "agg IsCut", h.IsCut(len(buf)), true)
	vh, err := Validate(buf)
	checkField(t, "agg Validate", err, nil)
	checkField(t, "agg Validate header", vh, h)
	_, tailCount, err := CheckAggPacket(buf)
	checkField(t, "agg CheckAggPacket", err, nil)
	checkField(t, "agg tailCount", tailCount, 3)
	vals := make([]float32, h.Count)
	UnpackAgg(vals, buf, tailCount)
	for i, want := range []float32{1.5, -2.25, 3, 0.25, 8, -0.125, 6, 7} {
		checkField(t, fmt.Sprintf("agg vals[%d]", i), vals[i], want)
	}
}

// TestCutViewUnprotectedBytes: at every length a cut can leave — each
// prefix from the bare header to one byte short of the whole packet — a
// packet of every scheme and an aggregate reads as cut, and its tail count is the whole tails that fit. Where the
// prefix validates, a single-bit flip is rejected everywhere but in the two
// places no CRC covers on a cut: the tail-CRC field and the surviving tail
// bytes.
func TestCutViewUnprotectedBytes(t *testing.T) {
	row := gaussianRow(17, 8)
	var pkts [][]byte
	for _, g := range cutGoldens {
		enc, err := quant.MustNew(g.params).Encode(row, 5)
		if err != nil {
			t.Fatal(err)
		}
		_, data, err := PackRow(1, 2, 3, enc)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, data[0])
	}
	sums := randSums(3, 8)
	agg, err := BuildAggPacket(aggTestHeader(8, 2), sums, sums)
	if err != nil {
		t.Fatal(err)
	}
	pkts = append(pkts, agg)
	for _, full := range pkts {
		h, err := ParseHeader(full)
		if err != nil || len(full) != h.FullSize() || h.IsCut(len(full)) {
			t.Fatalf("% x: the whole packet reads as cut (%v)", full[:HeaderSize], err)
		}
		boundary := HeaderSize + h.HeadBytes()
		valid := 0
		for n := HeaderSize; n < len(full); n++ {
			view := full[:n:n]
			tc, err := checkTails(view)
			if !h.IsCut(n) {
				t.Fatalf("P=%d Q=%d cut to %d: not IsCut", h.P, h.Q, n)
			}
			if _, verr := Validate(view); errClass(verr) != errClass(err) {
				t.Fatalf("P=%d Q=%d cut to %d: Validate %v, check %v", h.P, h.Q, n, verr, err)
			}
			if n < boundary {
				if err == nil {
					t.Fatalf("P=%d Q=%d cut to %d inside the heads: accepted", h.P, h.Q, n)
				}
				continue
			}
			if want := min((n-boundary)*8/int(h.Q), int(h.Count)); err != nil || tc != want {
				t.Fatalf("P=%d Q=%d cut to %d: %d tails (%v), want %d", h.P, h.Q, n, tc, err, want)
			}
			valid++
			for bit := range 8 * n {
				flipped := bytes.Clone(view)
				flipped[bit/8] ^= 1 << (bit % 8)
				at := bit / 8
				unprotected := at >= offTailCRC && at < HeaderSize || at >= boundary
				_, verr := Validate(flipped)
				if accepted := verr == nil; accepted != unprotected {
					t.Fatalf("P=%d Q=%d cut to %d, byte %d bit %d flipped: accepted %v, want %v",
						h.P, h.Q, n, at, bit%8, accepted, unprotected)
				}
			}
		}
		if valid == 0 {
			t.Fatalf("P=%d Q=%d: no cut length validates", h.P, h.Q)
		}
	}
}
