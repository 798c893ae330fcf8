package vecmath

import (
	"bytes"
	"fmt"
	"testing"

	"trimgrad/internal/xrand"
)

// refWriter is the bit-at-a-time reference implementation WriteBits had
// before the word-at-a-time rewrite. The production writer must emit the
// exact same bytes for every (value, width) sequence.
type refWriter struct {
	buf  []byte
	nBit int
}

func (w *refWriter) writeBit(b uint) {
	if w.nBit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b&1 != 0 {
		w.buf[w.nBit/8] |= 1 << uint(7-w.nBit%8)
	}
	w.nBit++
}

func (w *refWriter) writeBits(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.writeBit(uint(v >> uint(i)))
	}
}

// TestWriteBitsMatchesBitAtATime drives random (value, width) sequences
// through the word-at-a-time writer and the bit-at-a-time reference and
// requires byte-identical output, then reads everything back through
// ReadBits and requires the original values.
func TestWriteBitsMatchesBitAtATime(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 200; trial++ {
		var w BitWriter
		var ref refWriter
		type field struct {
			v     uint64
			width int
		}
		n := 1 + rng.Intn(64)
		fields := make([]field, 0, n)
		for i := 0; i < n; i++ {
			width := rng.Intn(65) // 0..64
			v := rng.Uint64()
			fields = append(fields, field{v, width})
			w.WriteBits(v, width)
			ref.writeBits(v, width)
			// Interleave single bits to exercise partial-byte boundaries.
			if rng.Intn(4) == 0 {
				b := uint(rng.Intn(2))
				w.WriteBit(b)
				ref.writeBit(b)
				fields = append(fields, field{uint64(b), 1})
			}
		}
		if !bytes.Equal(w.Bytes(), ref.buf) {
			t.Fatalf("trial %d: word writer bytes differ\n got %x\nwant %x", trial, w.Bytes(), ref.buf)
		}
		if w.Len() != ref.nBit {
			t.Fatalf("trial %d: Len %d != ref %d", trial, w.Len(), ref.nBit)
		}
		r := NewBitReader(w.Bytes(), w.Len())
		for i, f := range fields {
			want := f.v
			if f.width < 64 {
				want &= 1<<uint(f.width) - 1
			}
			got, ok := r.ReadBits(f.width)
			if !ok {
				t.Fatalf("trial %d: field %d: reader exhausted early", trial, i)
			}
			if got != want {
				t.Fatalf("trial %d: field %d (width %d): got %x want %x", trial, i, f.width, got, want)
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("trial %d: %d bits left over", trial, r.Remaining())
		}
	}
}

// TestReadBitsMatchesBitAtATime cross-checks ReadBits against ReadBit on
// random byte streams and random width schedules, including reads that
// straddle the exposed-bit limit.
func TestReadBitsMatchesBitAtATime(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, 1+rng.Intn(40))
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		nBits := rng.Intn(len(buf)*8 + 1)
		a := NewBitReader(buf, nBits)
		b := NewBitReader(buf, nBits)
		for {
			width := rng.Intn(65)
			got, okA := a.ReadBits(width)
			var want uint64
			okB := b.Remaining() >= width
			if okB {
				for i := 0; i < width; i++ {
					bit, _ := b.ReadBit()
					want = want<<1 | uint64(bit)
				}
			}
			if okA != okB {
				t.Fatalf("trial %d: ok mismatch at width %d: %v vs %v", trial, width, okA, okB)
			}
			if !okA {
				// A failed wide read must not consume bits.
				if a.Remaining() != b.Remaining() {
					t.Fatalf("trial %d: failed read consumed bits: %d vs %d", trial, a.Remaining(), b.Remaining())
				}
				if a.Remaining() == 0 {
					break
				}
				continue
			}
			if got != want {
				t.Fatalf("trial %d: width %d: got %x want %x", trial, width, got, want)
			}
		}
	}
}

// TestPackUnpackBitsMatchBitWriterReader pins the bulk kernels to the
// per-value writer/reader for every width 1–32 over every count 0–70 (every
// bit offset, and zero to eight whole groups plus every ragged tail of the
// eight-field kernels) and two packet-sized ones: PackBits must emit
// WriteBits' exact bytes into a dirty destination without touching the
// canary bytes past its return value, and UnpackBits must return ReadBits'
// values from a source that ends at ⌈n·width/8⌉.
func TestPackUnpackBitsMatchBitWriterReader(t *testing.T) {
	rng := xrand.New(99)
	counts := []int{127, 354}
	for n := 0; n <= 70; n++ {
		counts = append(counts, n)
	}
	for width := 1; width <= 32; width++ {
		for _, n := range counts {
			vals := make([]uint32, n)
			for i := range vals {
				vals[i] = uint32(rng.Uint64()) // high bits beyond width must be masked off
			}
			var w BitWriter
			for _, v := range vals {
				w.WriteBits(uint64(v), width)
			}
			want := w.Bytes()

			dst := make([]byte, len(want)+3)
			for i := range dst {
				dst[i] = 0xA5
			}
			if got := PackBits(dst, vals, width); got != len(want) {
				t.Fatalf("width %d n %d: PackBits wrote %d bytes, want %d", width, n, got, len(want))
			}
			if !bytes.Equal(dst[:len(want)], want) {
				t.Fatalf("width %d n %d: PackBits bytes differ\n got %x\nwant %x", width, n, dst[:len(want)], want)
			}
			for _, b := range dst[len(want):] {
				if b != 0xA5 {
					t.Fatalf("width %d n %d: PackBits wrote past its region", width, n)
				}
			}

			got := make([]uint32, n)
			for i := range got {
				got[i] = 0xFFFFFFFF
			}
			UnpackBits(got, want, width)
			r := NewBitReader(want, n*width)
			for i := range got {
				ref, ok := r.ReadBits(width)
				if !ok || uint64(got[i]) != ref {
					t.Fatalf("width %d n %d: UnpackBits[%d] = %x, ReadBits = %x (ok=%v)", width, n, i, got[i], ref, ok)
				}
			}
		}
	}
}

// TestPackUnpackBitsRejectBadInput: widths outside [1, 32] and short
// buffers are caller bugs and must panic rather than write or read out of
// the region.
func TestPackUnpackBitsRejectBadInput(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	vals := make([]uint32, 9)
	mustPanic("PackBits width 0", func() { PackBits(make([]byte, 64), vals, 0) })
	mustPanic("PackBits width 33", func() { PackBits(make([]byte, 64), vals, 33) })
	mustPanic("PackBits short dst", func() { PackBits(make([]byte, 3), vals, 3) })
	mustPanic("UnpackBits width 0", func() { UnpackBits(vals, make([]byte, 64), 0) })
	mustPanic("UnpackBits width 33", func() { UnpackBits(vals, make([]byte, 64), 33) })
	mustPanic("UnpackBits short src", func() { UnpackBits(vals, make([]byte, 3), 3) })
}

// BenchmarkBits times the bulk kernels on one data packet's worth of
// fields (354) at the two widths every default scheme ships — 1-bit heads
// and 31-bit tails, which take the eight-field group kernels — and at 8,
// which takes the accumulator loop.
func BenchmarkBits(b *testing.B) {
	const n = 354
	rng := xrand.New(5)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(rng.Uint64())
	}
	for _, width := range []int{1, 8, 31} {
		buf := make([]byte, (n*width+7)/8)
		b.Run(fmt.Sprintf("pack/w%d", width), func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				PackBits(buf, vals, width)
			}
		})
		out := make([]uint32, n)
		b.Run(fmt.Sprintf("unpack/w%d", width), func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				UnpackBits(out, buf, width)
			}
		})
	}
}
