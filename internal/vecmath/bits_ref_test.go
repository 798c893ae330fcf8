package vecmath

// BitWriter and BitReader are the reference for the wire bit layout: one
// field at a time, MSB-within-byte first. Nothing outside the tests calls
// them — the wire layer runs the bulk PackBits/UnpackBits — so they live
// here, as what TestPackUnpackBitsMatchBitWriterReader checks the kernels
// against.

// BitWriter accumulates a bit stream into a byte slice. The zero value is
// an empty writer ready for use.
type BitWriter struct {
	buf  []byte
	nBit int // total bits written
}

// NewBitWriter returns a writer with capacity pre-allocated for nBits.
func NewBitWriter(nBits int) *BitWriter {
	return &BitWriter{buf: make([]byte, 0, (nBits+7)/8)}
}

// WriteBit appends one bit (the low bit of b).
func (w *BitWriter) WriteBit(b uint) {
	if w.nBit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b&1 != 0 {
		w.buf[w.nBit/8] |= 1 << uint(7-w.nBit%8)
	}
	w.nBit++
}

// WriteBits appends the low width bits of v, most significant bit first.
// It panics if width is outside [0, 64].
//
// The implementation is word-at-a-time: it splits v into a leading
// partial-byte fill, whole-byte stores, and a trailing partial byte,
// instead of looping bit by bit. The byte layout is identical to repeated
// WriteBit calls (pinned by TestWriteBitsMatchesBitAtATime).
func (w *BitWriter) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic("vecmath: BitWriter width out of range")
	}
	if width == 0 {
		return
	}
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	// Extend the buffer to cover every bit about to land. New bytes are
	// zeroed explicitly: after Reset the spare capacity holds the previous
	// stream's bytes.
	need := (w.nBit + width + 7) / 8
	if old := len(w.buf); old < need {
		if need <= cap(w.buf) {
			w.buf = w.buf[:need]
		} else {
			w.buf = append(w.buf, make([]byte, need-old)...)
		}
		for i := old; i < need; i++ {
			w.buf[i] = 0
		}
	}
	pos := w.nBit
	w.nBit += width
	// Fill the current partial byte first (its written bits must be kept).
	if off := pos & 7; off != 0 {
		free := 8 - off
		if width <= free {
			w.buf[pos>>3] |= byte(v << uint(free-width))
			return
		}
		w.buf[pos>>3] |= byte(v >> uint(width-free))
		width -= free
		pos += free
	}
	// Whole bytes, most significant chunk first.
	for width >= 8 {
		width -= 8
		w.buf[pos>>3] = byte(v >> uint(width))
		pos += 8
	}
	if width > 0 {
		w.buf[pos>>3] = byte(v << uint(8-width))
	}
}

// Len returns the number of bits written so far.
func (w *BitWriter) Len() int { return w.nBit }

// Bytes returns the backing byte slice. Unused trailing bits are zero.
// The slice aliases the writer's internal buffer.
func (w *BitWriter) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse, keeping the allocation.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.nBit = 0
}

// BitReader consumes a bit stream produced by BitWriter.
type BitReader struct {
	buf  []byte
	pos  int // bit position
	nBit int // total readable bits
}

// NewBitReader returns a reader over buf exposing nBits bits. If nBits is
// negative, all of buf is readable.
func NewBitReader(buf []byte, nBits int) *BitReader {
	if nBits < 0 || nBits > len(buf)*8 {
		nBits = len(buf) * 8
	}
	return &BitReader{buf: buf, nBit: nBits}
}

// ReadBit returns the next bit, or (0, false) when exhausted.
func (r *BitReader) ReadBit() (uint, bool) {
	if r.pos >= r.nBit {
		return 0, false
	}
	b := uint(r.buf[r.pos/8]>>uint(7-r.pos%8)) & 1
	r.pos++
	return b, true
}

// ReadBits returns the next width bits as an MSB-first integer, or
// (0, false) if fewer than width bits remain. It panics if width is
// outside [0, 64].
//
// Like WriteBits it consumes whole bytes at a time: a leading partial
// byte, then full bytes, then a trailing partial byte. The value read is
// identical to repeated ReadBit calls.
func (r *BitReader) ReadBits(width int) (uint64, bool) {
	if width < 0 || width > 64 {
		panic("vecmath: BitReader width out of range")
	}
	if r.pos+width > r.nBit {
		return 0, false
	}
	pos := r.pos
	r.pos += width
	var v uint64
	// Leading partial byte: take its low (8-off) bits.
	if off := pos & 7; off != 0 {
		avail := 8 - off
		b := uint64(r.buf[pos>>3]) & (1<<uint(avail) - 1)
		if width <= avail {
			return b >> uint(avail-width), true
		}
		v = b
		width -= avail
		pos += avail
	}
	for width >= 8 {
		v = v<<8 | uint64(r.buf[pos>>3])
		pos += 8
		width -= 8
	}
	if width > 0 {
		v = v<<uint(width) | uint64(r.buf[pos>>3]>>uint(8-width))
	}
	return v, true
}

// Remaining returns the number of unread bits.
func (r *BitReader) Remaining() int { return r.nBit - r.pos }
