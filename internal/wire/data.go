package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"trimgrad/internal/vecmath"
)

// DataPacket is a parsed trimmable data packet: count coordinates' heads,
// and however many leading tails survived trimming.
type DataPacket struct {
	Header
	// Heads holds one head value per carried coordinate (always complete:
	// trimming never removes heads).
	Heads []uint32
	// Tails holds one tail value per carried coordinate; only the first
	// TailCount entries are meaningful.
	Tails []uint32
	// TailCount is how many leading coordinates still have their tails.
	// Equal to int(Count) for an untrimmed packet.
	TailCount int
}

// BuildDataPacket serializes one data packet carrying heads[i] and tails[i]
// (low h.P / h.Q bits respectively) for i in [0, h.Count). The Trimmed flag
// is cleared; both CRCs are computed. The result length is h.FullSize().
func BuildDataPacket(h Header, heads, tails []uint32) ([]byte, error) {
	if int(h.Count) != len(heads) || int(h.Count) != len(tails) {
		return nil, fmt.Errorf("wire: count %d != heads %d / tails %d",
			h.Count, len(heads), len(tails))
	}
	// P is held to the receiver's 1..16 (CheckDataPacket would refuse the
	// packet otherwise); P+Q ≤ 33 is the quantizers' sign+float32 budget.
	if h.P < 1 || h.P > 16 || int(h.P)+int(h.Q) > 33 {
		return nil, fmt.Errorf("wire: invalid P=%d Q=%d", h.P, h.Q)
	}
	if h.FullSize() > MaxPayload {
		return nil, fmt.Errorf("wire: packet size %d exceeds MaxPayload %d",
			h.FullSize(), MaxPayload)
	}
	h.Flags &^= FlagTrimmed | FlagMeta

	// Both bit regions are packed straight into the packet buffer, so the
	// packet costs one allocation.
	buf := make([]byte, h.FullSize())
	h.marshal(buf)
	headEnd := HeaderSize + h.HeadBytes()
	vecmath.PackBits(buf[HeaderSize:headEnd], heads, int(h.P))
	if h.Q > 0 {
		vecmath.PackBits(buf[headEnd:], tails, int(h.Q))
	}

	binary.BigEndian.PutUint32(buf[offHeadCRC:], headerChecksum(buf, buf[HeaderSize:headEnd]))
	binary.BigEndian.PutUint32(buf[offTailCRC:], checksum(buf[headEnd:]))
	return buf, nil
}

// ParseDataPacket decodes a (possibly trimmed) data packet. The head region
// must be complete and pass its CRC; tails are recovered for as many
// leading coordinates as the surviving bytes allow. The tail CRC is only
// verified when the full untrimmed tail region is present. It is
// CheckDataPacket followed by an unpack into a fresh DataPacket.
func ParseDataPacket(buf []byte) (*DataPacket, error) {
	p := new(DataPacket)
	if err := p.Unpack(buf); err != nil {
		return nil, err
	}
	return p, nil
}

// Unpack is ParseDataPacket into p, reusing the capacity of p.Heads and
// p.Tails, so a receiver that keeps one DataPacket as scratch parses
// without allocating. Entries of p.Tails at or beyond TailCount keep
// whatever an earlier Unpack left there. On error p is unchanged.
func (p *DataPacket) Unpack(buf []byte) error {
	h, tailCount, err := CheckDataPacket(buf)
	if err != nil {
		return err
	}
	p.Header, p.TailCount = h, tailCount
	p.Heads = resize(p.Heads, int(h.Count))
	p.Tails = resize(p.Tails, int(h.Count))
	UnpackData(buf, int(h.P), int(h.Q), int(h.Count), tailCount, p.Heads, p.Tails)
	return nil
}

// resize returns s with length n, reallocating only when cap(s) < n.
func resize(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

// CheckDataPacket makes every accept/reject decision about buf as a
// (possibly trimmed) data packet — header sanity, kind, P/Q plausibility,
// a complete head region, the head CRC, and the tail CRC whenever the trim
// state leaves one to verify — without unpacking a single coordinate or
// allocating. It returns the header and how many leading coordinates still
// have their tails. ParseDataPacket, DataPacket.Unpack and Validate all
// decide through this function, so a packet is accepted by one of them
// exactly when it is by all.
func CheckDataPacket(buf []byte) (h Header, tailCount int, err error) {
	h, err = ParseHeader(buf)
	if err != nil {
		return h, 0, err
	}
	tailCount, err = checkData(buf, &h)
	return h, tailCount, err
}

// checkData is CheckDataPacket for a header already parsed from buf.
func checkData(buf []byte, h *Header) (tailCount int, err error) {
	if h.IsMeta() || h.IsAgg() {
		return 0, ErrNotData
	}
	// Reject forged/corrupt geometry before any bit arithmetic: heads are
	// 1..16 bits, tails 0..32 bits per coordinate.
	if h.P < 1 || h.P > 16 || h.Q > 32 {
		return 0, fmt.Errorf("wire: implausible P=%d Q=%d", h.P, h.Q)
	}
	hr := headRegion(buf, h)
	if hr == nil {
		return 0, fmt.Errorf("%w: head region incomplete", ErrTooShort)
	}
	if headerChecksum(buf, hr) != binary.BigEndian.Uint32(buf[offHeadCRC:]) {
		return 0, fmt.Errorf("%w (head region)", ErrBadChecksum)
	}
	tailBuf := tailRegion(buf, h)
	if !tailCRCHolds(buf, h, tailBuf) {
		return 0, fmt.Errorf("%w (tail region)", ErrBadChecksum)
	}
	return wholeTails(h, tailBuf), nil
}

// wholeTails returns how many leading coordinates have their whole Q-bit
// tail inside tailBuf, the surviving tail region.
func wholeTails(h *Header, tailBuf []byte) int {
	if h.Q == 0 {
		// With no tail bits there is nothing to trim away: every coordinate
		// is complete as soon as its head arrives.
		return int(h.Count)
	}
	return min(len(tailBuf)*8/int(h.Q), int(h.Count))
}

// tailRegion returns whatever survives of buf's tail region; buf must hold
// a complete head region.
func tailRegion(buf []byte, h *Header) []byte {
	start := HeaderSize + h.HeadBytes()
	return buf[start:min(len(buf), start+h.TailBytes())]
}

// tailCRCHolds reports whether the surviving tail region is consistent
// with the stored tail CRC. The CRC is verified whenever the full region
// survived: a genuinely trimmed packet has its tail CRC zeroed by the
// switch, so a nonzero CRC on a "trimmed" full-length packet means the flag
// was corrupted in flight, and the stored CRC still convicts the tails. A
// shortened region carries no checksum and always holds.
func tailCRCHolds(buf []byte, h *Header, tailBuf []byte) bool {
	tailCRC := binary.BigEndian.Uint32(buf[offTailCRC:])
	if len(tailBuf) == h.TailBytes() && (!h.Trimmed() || tailCRC != 0) {
		return checksum(tailBuf) == tailCRC
	}
	return true
}

// UnpackData bit-unpacks a data packet CheckDataPacket has accepted, by what
// the check returned: all count heads into heads and the first tailCount
// tails into tails, each slice indexed from the packet's first coordinate. It
// never reads the header — a receiver that parked a shared buffer unpacks by
// what it recorded — and cannot fail: the check found those bits in buf.
func UnpackData(buf []byte, p, q, count, tailCount int, heads, tails []uint32) {
	vecmath.UnpackBits(heads[:count], buf[HeaderSize:], p)
	if q == 0 {
		clear(tails[:tailCount])
		return
	}
	vecmath.UnpackBits(tails[:tailCount], buf[HeaderSize+(p*count+7)/8:], q)
}

// checksum computes CRC-32C over b.
func checksum(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// headerChecksum computes CRC-32C over the immutable header bytes followed
// by region. The flags byte is normalized with FlagTrimmed cleared — a
// trimming switch sets that bit in flight, and the CRC must survive the
// rewrite — while FlagMeta/FlagAgg stay covered so a bit flip cannot
// reinterpret a packet as another kind. The CRC fields themselves are
// excluded. Folding the header under the head CRC means a flip in
// Row/Start/Seed/geometry is rejected instead of silently decoding
// coordinates into the wrong place.
func headerChecksum(buf []byte, region []byte) uint32 {
	// The flags byte is normalized through a static lookup table instead of
	// an in-place rewrite: headerChecksum runs on received payloads that
	// alias the sender's buffer (DESIGN.md §16), so even a transient write
	// here would race a concurrent retransmit read on another shard. A
	// stack-local copy of the byte is not an option either — crc32's
	// accelerated castagnoli path defeats escape analysis and would
	// heap-allocate on every packet; slicing the package-level table
	// allocates nothing.
	c := crc32.Update(0, castagnoli, buf[:offFlags])
	c = crc32.Update(c, castagnoli, normFlags[buf[offFlags]][:])
	c = crc32.Update(c, castagnoli, buf[offFlags+1:offHeadCRC])
	return crc32.Update(c, castagnoli, region)
}

// normFlags[b] holds b with FlagTrimmed cleared, as a one-byte array so
// headerChecksum can hash the normalized flags byte without writing to the
// packet or allocating.
var normFlags = func() (t [256][1]byte) {
	for i := range t {
		t[i][0] = byte(i) &^ FlagTrimmed
	}
	return t
}()

// TrimLen reports how many leading bytes of buf the switch-side trim toward
// targetSize keeps, without touching buf; len(buf) means there is nothing
// to cut. Metadata packets are never cut — the paper's design keeps them
// reliable — and neither are buffers whose header does not parse. Data and
// aggregate packets are cut to the head boundary, the smallest
// self-contained size; if targetSize allows keeping some whole tails beyond
// the boundary they are preserved (multi-level trimming, §5.1). It is
// TrimKeep on buf's TrimGeometry.
func TrimLen(buf []byte, targetSize int) int {
	boundary, q, ok := TrimGeometry(buf)
	if !ok {
		return len(buf) // not ours, or reliable metadata
	}
	return TrimKeep(len(buf), targetSize, boundary, q)
}

// TrimGeometry returns the two header fields a trim of buf depends on
// besides its length: the head boundary HeaderSize + HeadBytes() and the
// tail bits Q. ok is false, and both are 0, for a buffer no trim cuts — a
// metadata packet or one whose header does not parse. A sender that
// records the geometry while the header is at hand lets a switch decide a
// trim by TrimKeep without reading the payload again.
func TrimGeometry(buf []byte) (boundary, q int, ok bool) {
	h, err := ParseHeader(buf)
	if err != nil || h.IsMeta() {
		return 0, 0, false
	}
	return HeaderSize + h.HeadBytes(), int(h.Q), true
}

// TrimKeep is TrimLen for an n-byte packet of the given TrimGeometry: never
// below the head boundary, and above it whole Q-bit tails only.
func TrimKeep(n, targetSize, boundary, q int) int {
	targetSize = max(targetSize, HeaderSize)
	if targetSize >= n {
		return n
	}
	if targetSize <= boundary || q == 0 {
		return min(boundary, n)
	}
	wholeTails := (targetSize - boundary) * 8 / q
	return min(boundary+(wholeTails*q+7)/8, n)
}

// MarkTrimmed rewrites the two header fields Trim marks a cut with: the
// Trimmed flag is set and the now-meaningless tail CRC cleared. pkt is the
// kept prefix — the first TrimLen bytes of a packet, in a buffer the caller
// owns. Trim cuts and marks in one call. Marking is optional: an unmarked
// prefix validates and parses the same, and reads as cut (IsCut).
func MarkTrimmed(pkt []byte) {
	pkt[offFlags] |= FlagTrimmed
	binary.BigEndian.PutUint32(pkt[offTailCRC:], 0)
}

// Trim performs the switch-side trim operation on a raw packet buffer in
// place, returning the trimmed packet: a re-sliced view of the first
// TrimLen bytes of buf with the Trimmed flag set and the tail CRC cleared,
// mirroring how a trimming switch rewrites the packet. A buffer with
// nothing to cut is returned unchanged. The caller must own buf; to trim a
// buffer someone else may still read, trim a bytes.Clone of it.
func Trim(buf []byte, targetSize int) []byte {
	keep := TrimLen(buf, targetSize)
	if keep >= len(buf) {
		return buf
	}
	out := buf[:keep]
	MarkTrimmed(out)
	return out
}
