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
// (low h.P / h.Q bits respectively) for i in [0, h.Count). FlagMeta is
// cleared; both CRCs are computed. The result length is h.FullSize().
func BuildDataPacket(h Header, heads, tails []uint32) ([]byte, error) {
	buf := make([]byte, h.FullSize())
	if err := putDataPacket(buf, h, heads, tails); err != nil {
		return nil, err
	}
	return buf, nil
}

// putDataPacket is the one body that writes a data packet: BuildDataPacket
// into a buffer of its own, PackRowInto into its share of a row's slab. buf
// is h.FullSize() bytes, every one of which it writes.
func putDataPacket(buf []byte, h Header, heads, tails []uint32) error {
	if int(h.Count) != len(heads) || int(h.Count) != len(tails) {
		return fmt.Errorf("wire: count %d != heads %d / tails %d",
			h.Count, len(heads), len(tails))
	}
	// P is held to the receiver's 1..16 (CheckDataPacket would refuse the
	// packet otherwise); P+Q ≤ 33 is the quantizers' sign+float32 budget.
	if h.P < 1 || h.P > 16 || int(h.P)+int(h.Q) > 33 {
		return fmt.Errorf("wire: invalid P=%d Q=%d", h.P, h.Q)
	}
	if h.FullSize() > MaxPayload {
		return fmt.Errorf("wire: packet size %d exceeds MaxPayload %d",
			h.FullSize(), MaxPayload)
	}
	h.Flags &^= FlagMeta

	// Both bit regions are packed straight into the packet buffer.
	h.marshal(buf)
	headEnd := HeaderSize + h.HeadBytes()
	vecmath.PackBits(buf[HeaderSize:headEnd], heads, int(h.P))
	if h.Q > 0 {
		vecmath.PackBits(buf[headEnd:], tails, int(h.Q))
	}

	binary.BigEndian.PutUint32(buf[offHeadCRC:], headerChecksum(buf, buf[HeaderSize:headEnd]))
	binary.BigEndian.PutUint32(buf[offTailCRC:], checksum(buf[headEnd:]))
	return nil
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
// a complete head region, the head CRC, and the tail CRC whenever the whole
// tail region survived — without unpacking a single coordinate or
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
// with the stored tail CRC. The CRC covers the whole region, so it is
// verified whenever the whole region survived; a cut region carries no
// checksum and always holds.
func tailCRCHolds(buf []byte, h *Header, tailBuf []byte) bool {
	return len(tailBuf) < h.TailBytes() || checksum(tailBuf) == binary.BigEndian.Uint32(buf[offTailCRC:])
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

// headerChecksum computes CRC-32C over the header bytes before the CRC
// fields, followed by region. FlagMeta/FlagAgg are covered, so a bit flip
// cannot reinterpret a packet as another kind. Folding the header under
// the head CRC means a flip in Row/Start/Seed/geometry is rejected instead
// of silently decoding coordinates into the wrong place.
func headerChecksum(buf []byte, region []byte) uint32 {
	return crc32.Update(checksum(buf[:offHeadCRC]), castagnoli, region)
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

// TrimKeep returns how many bytes Trim keeps of an n-byte packet of the
// given TrimGeometry: never below the head boundary, and above it whole
// Q-bit tails only.
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

// Trim performs the switch-side trim toward targetSize total bytes: it
// returns buf's kept prefix and writes nothing, so a sender's buffer may be
// trimmed wherever it is shared. Metadata packets are never cut — the
// paper's design keeps them reliable — and neither are buffers whose header
// does not parse; both come back whole. Data and aggregate packets are cut
// to the head boundary, the smallest self-contained size; if targetSize
// allows keeping some whole tails beyond the boundary they are preserved
// (multi-level trimming, §5.1).
func Trim(buf []byte, targetSize int) []byte {
	boundary, q, ok := TrimGeometry(buf)
	if !ok {
		return buf
	}
	return buf[:TrimKeep(len(buf), targetSize, boundary, q)]
}
