package wire

import (
	"bytes"
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

// FuzzValidateMatchesParse: for every packet kind, Validate(buf) == nil
// exactly when the kind's parser succeeds, with the same error class when
// it does not; and for data packets the two unpacking entry points (fresh
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

// TestCutViewMatchesMarked: a fabric that cuts a packet to a view of its
// prefix writes neither the Trimmed flag nor the zero tail CRC, so the
// unmarked prefix must read as its marked form (MarkTrimmed, what Trim
// returns) reads. For a packet of every scheme, at every head and tail
// width the schemes use, and for an aggregate, at every length a cut can
// leave — each prefix from the bare header to one byte short of the whole
// packet — the two agree on Validate's verdict and error class, on the tail
// count and on IsCut (true for both), and ValidateUntrimmed rejects both.
// Every single-bit flip of the two is then rejected alike.
func TestCutViewMatchesMarked(t *testing.T) {
	row := gaussianRow(17, 32)
	type packet struct {
		name string
		full []byte
	}
	var pkts []packet
	for _, p := range []quant.Params{
		{Scheme: quant.Sign}, {Scheme: quant.Sign, TailBits: 7},
		{Scheme: quant.SQ}, {Scheme: quant.SD}, {Scheme: quant.RHT},
		{Scheme: quant.Linear, P: 6}, {Scheme: quant.RHTLinear, P: 3},
		{Scheme: quant.Eden, P: 2},
	} {
		c := quant.MustNew(p)
		enc, err := c.Encode(row, 5)
		if err != nil {
			t.Fatal(err)
		}
		_, data, err := PackRow(1, 2, 3, enc)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := ParseHeader(data[0])
		pkts = append(pkts, packet{fmt.Sprintf("%s P=%d Q=%d", c.Name(), h.P, h.Q), data[0]})
	}
	sums := randSums(3, 8)
	agg, err := BuildAggPacket(aggTestHeader(8, 2), sums, sums)
	if err != nil {
		t.Fatal(err)
	}
	pkts = append(pkts, packet{"aggregate", agg})
	for _, pkt := range pkts {
		name, full := pkt.name, pkt.full
		h, err := ParseHeader(full)
		if err != nil || len(full) != h.FullSize() || h.IsCut(len(full)) {
			t.Fatalf("%s: the whole packet (%d of %d bytes, %v) reads as cut", name, len(full), h.FullSize(), err)
		}
		valid, flips, rejected := 0, 0, 0
		for n := HeaderSize; n < len(full); n++ {
			view := full[:n:n]
			marked := bytes.Clone(view)
			MarkTrimmed(marked)
			tv, errV := checkTails(view)
			tm, errM := checkTails(marked)
			if errClass(Validate(view)) != errClass(errV) || errClass(errV) != errClass(errM) || tv != tm {
				t.Fatalf("%s cut to %d: view (%d tails, %v), marked (%d tails, %v)", name, n, tv, errV, tm, errM)
			}
			hv, _ := ParseHeader(view)
			hm, _ := ParseHeader(marked)
			if !hv.IsCut(n) || !hm.IsCut(n) || ValidateUntrimmed(view) == nil || ValidateUntrimmed(marked) == nil {
				t.Fatalf("%s cut to %d: IsCut %v/%v, ValidateUntrimmed accepts the view or the marked form", name, n, hv.IsCut(n), hm.IsCut(n))
			}
			if errV != nil {
				continue
			}
			valid++
			for bit := range 8 * n {
				fv, fm := bytes.Clone(view), bytes.Clone(marked)
				fv[bit/8] ^= 1 << (bit % 8)
				fm[bit/8] ^= 1 << (bit % 8)
				cv, cm := errClass(Validate(fv)), errClass(Validate(fm))
				if cv != cm {
					t.Fatalf("%s cut to %d, bit %d flipped: view %v, marked %v", name, n, bit, cv, cm)
				}
				if cv != nil {
					rejected++
				}
				flips++
			}
		}
		if valid == 0 || rejected == 0 {
			t.Fatalf("%s: %d cut lengths pass Validate, %d flips rejected; want both > 0", name, valid, rejected)
		}
		t.Logf("%s: %d cut lengths valid, %d of %d flips rejected", name, valid, rejected, flips)
	}
}
