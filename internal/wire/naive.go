package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// NaivePacket is the Figure-2(a) baseline layout: whole 32-bit floats
// packed one after another. Trimming such a packet keeps the first k whole
// floats and discards the rest entirely — no compressed form survives.
// Senders may order the floats by decreasing magnitude (the MLT-inspired
// layout of §2) so that trimming discards the least important coordinates;
// the Indices field then records which row coordinate each float belongs
// to.
type NaivePacket struct {
	Header
	// Values holds the surviving floats (ValueCount of them).
	Values []float32
	// ValueCount is how many whole floats survived; Count is how many were
	// sent.
	ValueCount int
}

// BuildNaivePacket serializes count whole floats following the header.
// When the packet is magnitude-sorted, the caller encodes coordinate order
// via h.Start and its own index side-channel; the wire layer treats values
// opaquely.
func BuildNaivePacket(h Header, values []float32) ([]byte, error) {
	if len(values) > 65535 {
		return nil, fmt.Errorf("wire: too many floats %d", len(values))
	}
	h.Flags = (h.Flags &^ (FlagTrimmed | FlagMeta)) | FlagNaive
	h.Count = uint16(len(values))
	h.P = 32
	h.Q = 0
	size := HeaderSize + 4*len(values)
	if size > MaxPayload {
		return nil, fmt.Errorf("wire: naive packet size %d exceeds MaxPayload %d",
			size, MaxPayload)
	}
	buf := make([]byte, size)
	h.marshal(buf)
	for i, v := range values {
		binary.BigEndian.PutUint32(buf[HeaderSize+4*i:], math.Float32bits(v))
	}
	binary.BigEndian.PutUint32(buf[offHeadCRC:], headerChecksum(buf, buf[HeaderSize:]))
	binary.BigEndian.PutUint32(buf[offTailCRC:], 0)
	return buf, nil
}

// ParseNaivePacket decodes a (possibly trimmed) naive packet, recovering
// however many whole floats survived. The CRC is only verified when the
// packet is untrimmed and complete.
func ParseNaivePacket(buf []byte) (*NaivePacket, error) {
	h, err := ParseHeader(buf)
	if err != nil {
		return nil, err
	}
	n, err := checkNaive(buf, &h)
	if err != nil {
		return nil, err
	}
	p := &NaivePacket{Header: h, Values: make([]float32, n), ValueCount: n}
	unpackFloats(p.Values, buf[HeaderSize:])
	return p, nil
}

// unpackFloats reads len(dst) big-endian float32s from src.
func unpackFloats(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.BigEndian.Uint32(src[4*i:]))
	}
}

// checkNaive makes every accept/reject decision about buf as a naive
// packet whose header is h, without allocating, and returns how many whole
// floats survived.
func checkNaive(buf []byte, h *Header) (valueCount int, err error) {
	if !h.IsNaive() {
		return 0, ErrNotNaive
	}
	n := min((len(buf)-HeaderSize)/4, int(h.Count))
	if h.Trimmed() {
		return n, nil // a trimmed naive payload carries no checksum
	}
	// An untrimmed packet claiming more floats than it carries is corrupt
	// or forged — only a trimming switch legitimately shortens a packet.
	if n < int(h.Count) {
		return 0, fmt.Errorf("%w: untrimmed naive packet carries %d of %d floats",
			ErrTooShort, n, h.Count)
	}
	if headerChecksum(buf, buf[HeaderSize:HeaderSize+4*n]) != binary.BigEndian.Uint32(buf[offHeadCRC:]) {
		return 0, fmt.Errorf("%w (naive payload)", ErrBadChecksum)
	}
	return n, nil
}

// NaiveFloatsPerPacket is how many whole floats fit in one MTU frame.
func NaiveFloatsPerPacket() int { return (MaxPayload - HeaderSize) / 4 }
