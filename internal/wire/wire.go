// Package wire defines the trimmable-gradient packet format of §2 of the
// paper and the switch-side trim operation on it.
//
// A data packet carries count coordinates of one row. Its payload is laid
// out so that in-network compression is exactly byte truncation:
//
//	+-----------+----------------------+---------------------------+
//	|  header   | heads: P bits/coord  |   tails: Q bits/coord     |
//	| (40 bytes)| (all coords, packed) |  (all coords, packed)     |
//	+-----------+----------------------+---------------------------+
//
// All the P-bit heads come first, so a switch that trims the packet to
// HeaderSize + ⌈P·count/8⌉ bytes leaves a self-contained compressed
// encoding — the receiver can still aggregate the gradient without
// retransmission. Both regions pack coordinates in order, MSB-first within
// each byte, so even a cut *inside* the tail region preserves the tails of
// a prefix of coordinates.
//
// Metadata packets carry the per-row reliable side information (the σ/L/f
// scale of package quant) and are never trimmed; they model the paper's
// "small packet that will not be trimmed". Aggregates (agg.go) are the
// SwitchML-style sums a switch builds from queued data packets. There is
// no fourth kind: Figure 2(a)'s whole-float layout lives in package sparse.
//
// All integers are big-endian (network byte order). Head and tail regions
// are covered by separate CRC-32C checksums so that a trimmed packet still
// verifies its surviving bytes. The head CRC additionally covers the fixed
// header (minus the flags byte, which a trimming switch rewrites in flight,
// and the CRC fields themselves), so corrupted routing/geometry fields are
// rejected rather than decoded into the wrong coordinates. A trimmed
// packet's surviving tail bytes are the one unprotected region: the switch
// clears the tail CRC when it cuts the packet.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Wire-format constants.
const (
	// Magic identifies a trimgrad packet ("TG").
	Magic = 0x5447
	// Version is the current wire-format version.
	Version = 1
	// HeaderSize is the fixed encoded header length in bytes.
	HeaderSize = 40

	// MTU is the standard Ethernet maximum transmission unit the paper's
	// arithmetic assumes.
	MTU = 1500
	// NetOverhead is the Ethernet+IPv4+UDP header bytes (14+20+8) that the
	// paper counts as the 42-byte "standard header".
	NetOverhead = 42
	// MaxPayload is the budget for one trimgrad packet inside an MTU-sized
	// frame, including HeaderSize.
	MaxPayload = MTU - NetOverhead
)

// Header flag bits.
const (
	// FlagTrimmed marks a packet whose tail region was cut by a switch.
	FlagTrimmed = 1 << 0
	// FlagMeta marks a reliable metadata packet; switches never trim it.
	FlagMeta = 1 << 1
	// FlagAgg marks an in-network aggregate: the switch-side sum of two or
	// more trimmable data packets with matching (message, row, offset,
	// seed) keys. Its payload holds decoded float32 sums, not head/tail
	// bits (see agg.go).
	FlagAgg = 1 << 3
	// knownFlags is every bit a kind defines; ParseHeader refuses the rest.
	knownFlags = FlagTrimmed | FlagMeta | FlagAgg
)

// Field offsets within the fixed header.
const (
	offMagic   = 0
	offVersion = 2
	offFlags   = 3
	offFlow    = 4
	offMessage = 8
	offRow     = 12
	offStart   = 16
	offCount   = 20
	offP       = 22
	offQ       = 23
	offSeed    = 24
	offHeadCRC = 32
	offTailCRC = 36
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by packet parsing.
var (
	ErrTooShort    = errors.New("wire: buffer shorter than header")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadChecksum = errors.New("wire: checksum mismatch")
	ErrNotMeta     = errors.New("wire: not a metadata packet")
	ErrNotData     = errors.New("wire: not a data packet")
	ErrBadFlags    = errors.New("wire: undefined flag bits")
)

// Header is the fixed 40-byte packet header shared by all packet kinds.
type Header struct {
	Flags   uint8
	Flow    uint32 // sender/flow identifier
	Message uint32 // collective-communication message (bucket) id
	Row     uint32 // row index within the message
	Start   uint32 // index of the first coordinate carried
	Count   uint16 // number of coordinates carried
	P       uint8  // head bits per coordinate
	Q       uint8  // tail bits per coordinate
	Seed    uint64 // shared-randomness seed for this row
}

// Trimmed reports whether the packet's Trimmed flag is set. A switch that
// cuts a view of the sender's bytes writes no flag; IsCut tells either.
func (h *Header) Trimmed() bool { return h.Flags&FlagTrimmed != 0 }

// IsCut reports whether an n-byte packet with header h was trimmed: its
// Trimmed flag is set, or it is a data or aggregate packet shorter than
// FullSize. A cut prefix is told by its length alone, marked or not.
func (h *Header) IsCut(n int) bool {
	return h.Trimmed() || !h.IsMeta() && n < h.FullSize()
}

// IsMeta reports whether this is a metadata packet.
func (h *Header) IsMeta() bool { return h.Flags&FlagMeta != 0 }

// IsAgg reports whether this is an in-network aggregate packet.
func (h *Header) IsAgg() bool { return h.Flags&FlagAgg != 0 }

// HeadBytes returns the byte length of the packed head region.
func (h *Header) HeadBytes() int { return (int(h.P)*int(h.Count) + 7) / 8 }

// TailBytes returns the byte length of the packed tail region.
func (h *Header) TailBytes() int { return (int(h.Q)*int(h.Count) + 7) / 8 }

// FullSize returns the untrimmed packet size in bytes.
func (h *Header) FullSize() int { return HeaderSize + h.HeadBytes() + h.TailBytes() }

// TrimmedSize returns the packet size after an exact head-boundary trim.
func (h *Header) TrimmedSize() int { return HeaderSize + h.HeadBytes() }

// marshal writes the header fields into buf[:HeaderSize] without checksums
// (those are filled by the packet builders).
func (h *Header) marshal(buf []byte) {
	binary.BigEndian.PutUint16(buf[offMagic:], Magic)
	buf[offVersion] = Version
	buf[offFlags] = h.Flags
	binary.BigEndian.PutUint32(buf[offFlow:], h.Flow)
	binary.BigEndian.PutUint32(buf[offMessage:], h.Message)
	binary.BigEndian.PutUint32(buf[offRow:], h.Row)
	binary.BigEndian.PutUint32(buf[offStart:], h.Start)
	binary.BigEndian.PutUint16(buf[offCount:], h.Count)
	buf[offP] = h.P
	buf[offQ] = h.Q
	binary.BigEndian.PutUint64(buf[offSeed:], h.Seed)
}

// ParseHeader decodes and validates the fixed header of buf.
func ParseHeader(buf []byte) (Header, error) {
	var h Header
	if len(buf) < HeaderSize {
		return h, ErrTooShort
	}
	if binary.BigEndian.Uint16(buf[offMagic:]) != Magic {
		return h, ErrBadMagic
	}
	if buf[offVersion] != Version {
		return h, fmt.Errorf("%w: %d", ErrBadVersion, buf[offVersion])
	}
	if buf[offFlags]&^knownFlags != 0 {
		return h, fmt.Errorf("%w: %#02x", ErrBadFlags, buf[offFlags])
	}
	h.Flags = buf[offFlags]
	h.Flow = binary.BigEndian.Uint32(buf[offFlow:])
	h.Message = binary.BigEndian.Uint32(buf[offMessage:])
	h.Row = binary.BigEndian.Uint32(buf[offRow:])
	h.Start = binary.BigEndian.Uint32(buf[offStart:])
	h.Count = binary.BigEndian.Uint16(buf[offCount:])
	h.P = buf[offP]
	h.Q = buf[offQ]
	h.Seed = binary.BigEndian.Uint64(buf[offSeed:])
	return h, nil
}

// CoordsPerPacket returns how many (P+Q)-bit coordinates fit in one
// MTU-sized frame alongside the trimgrad and network headers, accounting
// for the head and tail regions being byte-padded independently. It
// panics if p+q is zero.
func CoordsPerPacket(p, q int) int {
	if p+q <= 0 {
		panic("wire: p+q must be positive")
	}
	n := (MaxPayload - HeaderSize) * 8 / (p + q)
	if n > 65535 {
		n = 65535
	}
	for n > 0 && HeaderSize+(p*n+7)/8+(q*n+7)/8 > MaxPayload {
		n--
	}
	return n
}

// headRegion returns the head-region bytes of buf given h, or nil if buf is
// too short for any head bytes.
func headRegion(buf []byte, h *Header) []byte {
	end := HeaderSize + h.HeadBytes()
	if len(buf) < end {
		return nil
	}
	return buf[HeaderSize:end]
}
