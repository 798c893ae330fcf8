package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"trimgrad/internal/quant"
	"trimgrad/internal/xrand"
)

// aggTestHeader builds an aggregate-key header folding `inputs` senders.
func aggTestHeader(count uint16, inputs uint32) Header {
	h := testHeader(count, 32, 32)
	h.Flow = inputs
	return h
}

func randSums(seed uint64, n int) []float32 {
	r := xrand.New(seed)
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(r.NormFloat64())
	}
	return out
}

func TestBuildParseAggRoundTrip(t *testing.T) {
	const count = 64
	sums := randSums(1, count)
	for _, tc := range []int{0, 1, 17, count - 1, count} {
		tails := randSums(2, count)[:tc]
		buf, err := BuildAggPacket(aggTestHeader(count, 3), sums, tails)
		if err != nil {
			t.Fatalf("tc=%d: %v", tc, err)
		}
		ap, err := ParseAggPacket(buf)
		if err != nil {
			t.Fatalf("tc=%d: %v", tc, err)
		}
		if ap.Flow != 3 {
			t.Fatalf("tc=%d: inputs = %d, want 3", tc, ap.Flow)
		}
		if ap.TailCount != tc {
			t.Fatalf("tc=%d: TailCount = %d", tc, ap.TailCount)
		}
		if wantTrim := tc < count; ap.Trimmed() != wantTrim {
			t.Fatalf("tc=%d: Trimmed = %v, want %v", tc, ap.Trimmed(), wantTrim)
		}
		for i, v := range sums {
			if ap.Sums[i] != v {
				t.Fatalf("tc=%d: Sums[%d] = %v, want %v", tc, i, ap.Sums[i], v)
			}
		}
		for i, v := range tails {
			if ap.TailSums[i] != v {
				t.Fatalf("tc=%d: TailSums[%d] = %v, want %v", tc, i, ap.TailSums[i], v)
			}
		}
		if err := Validate(buf); err != nil {
			t.Fatalf("tc=%d: Validate: %v", tc, err)
		}
	}
}

// TestAggTrimCommutesWithBuild is the byte-identity half of the
// survivor-prefix rule: trimming a full aggregate to k tail entries must
// produce exactly the bytes BuildAggPacket emits for k-entry tails.
func TestAggTrimCommutesWithBuild(t *testing.T) {
	const count = 48
	sums := randSums(3, count)
	tails := randSums(4, count)
	full, err := BuildAggPacket(aggTestHeader(count, 2), sums, tails)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 31, count} {
		want, err := BuildAggPacket(aggTestHeader(count, 2), sums, tails[:k])
		if err != nil {
			t.Fatal(err)
		}
		got := Trim(append([]byte(nil), full...), len(want))
		if !bytes.Equal(got, want) {
			t.Fatalf("k=%d: trimmed aggregate differs from built-trimmed aggregate", k)
		}
	}
}

func TestMergeTrimmableAggAgg(t *testing.T) {
	const count = 32
	sa, sb := randSums(5, count), randSums(6, count)
	ta, tb := randSums(7, count)[:20], randSums(8, count)[:11]
	a, err := BuildAggPacket(aggTestHeader(count, 2), sa, ta)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildAggPacket(aggTestHeader(count, 3), sb, tb)
	if err != nil {
		t.Fatal(err)
	}
	noMeta := func(flow, msg, row uint32) (MetaInfo, bool) { return MetaInfo{}, false }
	merged, err := MergeTrimmable(a, b, noMeta)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := ParseAggPacket(merged)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Flow != 5 {
		t.Fatalf("inputs = %d, want 5", ap.Flow)
	}
	if ap.TailCount != 11 {
		t.Fatalf("TailCount = %d, want min(20,11)=11", ap.TailCount)
	}
	for i := 0; i < count; i++ {
		if want := sa[i] + sb[i]; ap.Sums[i] != want {
			t.Fatalf("Sums[%d] = %v, want %v", i, ap.Sums[i], want)
		}
	}
	for i := 0; i < ap.TailCount; i++ {
		if want := ta[i] + tb[i]; ap.TailSums[i] != want {
			t.Fatalf("TailSums[%d] = %v, want %v", i, ap.TailSums[i], want)
		}
	}
}

func TestMergeTrimmableRejections(t *testing.T) {
	const count = 16
	noMeta := func(flow, msg, row uint32) (MetaInfo, bool) { return MetaInfo{}, false }
	sums := randSums(9, count)
	base, err := BuildAggPacket(aggTestHeader(count, 1), sums, sums)
	if err != nil {
		t.Fatal(err)
	}

	// Key mismatches: every field of the aggregation key must match.
	for _, mut := range []func(*Header){
		func(h *Header) { h.Message++ },
		func(h *Header) { h.Row++ },
		func(h *Header) { h.Start += 8 },
		func(h *Header) { h.Seed ^= 1 },
	} {
		h := aggTestHeader(count, 1)
		mut(&h)
		other, err := BuildAggPacket(h, sums, sums)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := MergeTrimmable(base, other, noMeta); !errors.Is(err, ErrMergeKey) {
			t.Fatalf("key mismatch: err = %v, want ErrMergeKey", err)
		}
	}

	// Metadata never merges, as either input.
	meta := BuildMetaPacket(testHeader(count, 1, 31), uint8(quant.Sign), 256, 1.5)
	if _, err := MergeTrimmable(base, meta, noMeta); !errors.Is(err, ErrMergeKey) {
		t.Fatalf("meta merge: err = %v, want ErrMergeKey", err)
	}
	if _, err := MergeTrimmable(meta, base, noMeta); !errors.Is(err, ErrMergeKey) {
		t.Fatalf("meta-first merge: err = %v, want ErrMergeKey", err)
	}

	// A plain data packet without snooped metadata cannot be decoded.
	heads, tails := randHeadsTails(10, int(count), 1, 31)
	h := testHeader(count, 1, 31)
	plain, err := BuildDataPacket(h, heads, tails)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeTrimmable(plain, clonePlain(t, plain, 2), noMeta); !errors.Is(err, ErrNoMeta) {
		t.Fatalf("plain w/o meta: err = %v, want ErrNoMeta", err)
	}
}

// clonePlain rebuilds a plain data packet under another flow id (same key).
func clonePlain(t *testing.T, buf []byte, flow uint32) []byte {
	t.Helper()
	dp, err := ParseDataPacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	h := dp.Header
	h.Flow = flow
	out, err := BuildDataPacket(h, dp.Heads, dp.Tails)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMergeTrimmablePlainMatchesNativeDecoder pins the plain×plain merge
// against an explicit scalar reference: decode each packet coordinate by
// coordinate with NativeDecoder and add.
func TestMergeTrimmablePlainMatchesNativeDecoder(t *testing.T) {
	const count, p, q = 40, 1, 31
	const scale = 0.8125
	metaOf := func(flow, msg, row uint32) (MetaInfo, bool) {
		return MetaInfo{Scheme: quant.Sign, Scale: scale}, true
	}
	h := testHeader(count, p, q)
	headsA, tailsA := randHeadsTails(21, count, p, q)
	headsB, tailsB := randHeadsTails(22, count, p, q)
	a, err := BuildDataPacket(h, headsA, tailsA)
	if err != nil {
		t.Fatal(err)
	}
	hb := h
	hb.Flow = 9
	b, err := BuildDataPacket(hb, headsB, tailsB)
	if err != nil {
		t.Fatal(err)
	}
	// Trim b so the merged survivor prefix is b's.
	b = Trim(b, HeaderSize+hb.HeadBytes()+(17*q+7)/8)
	bp, err := ParseDataPacket(b)
	if err != nil {
		t.Fatal(err)
	}

	merged, err := MergeTrimmable(a, b, metaOf)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := ParseAggPacket(merged)
	if err != nil {
		t.Fatal(err)
	}
	if ap.TailCount != bp.TailCount {
		t.Fatalf("TailCount = %d, want %d", ap.TailCount, bp.TailCount)
	}

	nd, err := quant.NewNativeDecoder(quant.Sign, p, q, scale, h.Seed)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(heads, tails []uint32, tc int) []float32 {
		vals := make([]float32, len(heads))
		if err := nd.PacketValues(vals, int(h.Start), heads, tails, tc); err != nil {
			t.Fatal(err)
		}
		return vals
	}
	headOnlyA := decode(headsA, tailsA, 0)
	headOnlyB := decode(bp.Heads, bp.Tails, 0)
	fullA := decode(headsA, tailsA, count)
	fullB := decode(bp.Heads, bp.Tails, bp.TailCount)
	for i := 0; i < count; i++ {
		if want := headOnlyA[i] + headOnlyB[i]; ap.Sums[i] != want {
			t.Fatalf("Sums[%d] = %v, want %v", i, ap.Sums[i], want)
		}
	}
	for i := 0; i < ap.TailCount; i++ {
		if want := fullA[i] + fullB[i]; ap.TailSums[i] != want {
			t.Fatalf("TailSums[%d] = %v, want %v", i, ap.TailSums[i], want)
		}
	}
	if math.IsNaN(float64(ap.Sums[0])) {
		t.Fatal("NaN sum")
	}
}

// FuzzAggregateMerge fuzzes MergeTrimmable over aggregate pairs with
// random trim points and mutated key fields, checking every successful
// merge against a reference scalar merge (element-wise float32 adds with
// min-prefix tails) and every failure for a clean error.
func FuzzAggregateMerge(f *testing.F) {
	f.Add(uint64(1), uint(16), uint(16), uint(16), uint8(0))
	f.Add(uint64(2), uint(64), uint(3), uint(64), uint8(0))
	f.Add(uint64(3), uint(1), uint(0), uint(1), uint8(1))
	f.Add(uint64(4), uint(32), uint(32), uint(7), uint8(2))
	f.Add(uint64(5), uint(8), uint(5), uint(2), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, count, tcA, tcB uint, mutate uint8) {
		n := int(count%512) + 1
		ka, kb := int(tcA)%(n+1), int(tcB)%(n+1)
		sa, sb := randSums(seed, n), randSums(seed+1, n)
		ta, tb := randSums(seed+2, n)[:ka], randSums(seed+3, n)[:kb]
		ha := aggTestHeader(uint16(n), uint32(seed%100+1))
		hb := ha
		hb.Flow = uint32(seed%7 + 1)
		// Mutate one key field per bit: mismatched epochs/rows/offsets must
		// be rejected, never silently summed.
		if mutate&1 != 0 {
			hb.Message++
		}
		if mutate&2 != 0 {
			hb.Row++
		}
		if mutate&4 != 0 {
			hb.Start += 8
		}
		a, err := BuildAggPacket(ha, sa, ta)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildAggPacket(hb, sb, tb)
		if err != nil {
			t.Fatal(err)
		}
		noMeta := func(flow, msg, row uint32) (MetaInfo, bool) { return MetaInfo{}, false }
		merged, err := MergeTrimmable(a, b, noMeta)
		if mutate&7 != 0 {
			if !errors.Is(err, ErrMergeKey) {
				t.Fatalf("mutated key %d: err = %v, want ErrMergeKey", mutate, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		ap, err := ParseAggPacket(merged)
		if err != nil {
			t.Fatalf("parse merged: %v", err)
		}
		if want := ha.Flow + hb.Flow; ap.Flow != want {
			t.Fatalf("inputs = %d, want %d", ap.Flow, want)
		}
		if want := min(ka, kb); ap.TailCount != want {
			t.Fatalf("TailCount = %d, want %d", ap.TailCount, want)
		}
		for i := 0; i < n; i++ {
			if want := sa[i] + sb[i]; ap.Sums[i] != want && !(math.IsNaN(float64(want)) && math.IsNaN(float64(ap.Sums[i]))) {
				t.Fatalf("Sums[%d] = %v, want %v", i, ap.Sums[i], want)
			}
		}
		for i := 0; i < ap.TailCount; i++ {
			if want := ta[i] + tb[i]; ap.TailSums[i] != want && !(math.IsNaN(float64(want)) && math.IsNaN(float64(ap.TailSums[i]))) {
				t.Fatalf("TailSums[%d] = %v, want %v", i, ap.TailSums[i], want)
			}
		}
		// Merging must be total over re-merges: aggregate of aggregates.
		if _, err := MergeTrimmable(merged, a, noMeta); err != nil {
			t.Fatalf("re-merge: %v", err)
		}
	})
}

// FuzzParseAggPacket: arbitrary bytes must parse or be rejected, never
// panic — the switch calls this on whatever shares a queue.
func FuzzParseAggPacket(f *testing.F) {
	sums := randSums(1, 16)
	full, _ := BuildAggPacket(aggTestHeader(16, 2), sums, sums)
	trimmed, _ := BuildAggPacket(aggTestHeader(16, 2), sums, sums[:5])
	f.Add(full)
	f.Add(trimmed)
	f.Add(full[:HeaderSize+10])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ap, err := ParseAggPacket(data)
		if err != nil {
			return
		}
		if int(ap.Count) != len(ap.Sums) || ap.TailCount > int(ap.Count) {
			t.Fatalf("inconsistent parse: count=%d sums=%d tc=%d", ap.Count, len(ap.Sums), ap.TailCount)
		}
	})
}
