package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// metaPayloadSize is the fixed metadata payload length.
const metaPayloadSize = 16

// MetaPacket carries one row's reliable side information: the decoding
// scale (σ, L, or f, depending on the scheme) and the row geometry. It is
// the paper's "small packet that will not be trimmed": switches forward it
// untouched and the transport layer delivers it reliably.
type MetaPacket struct {
	Header
	Scheme uint8   // quant.Scheme value
	N      uint32  // row length in coordinates
	Scale  float64 // reliable decoding scale
}

// MetaSize is the on-wire size of a metadata packet.
const MetaSize = HeaderSize + metaPayloadSize

// BuildMetaPacket serializes a metadata packet for one row.
func BuildMetaPacket(h Header, scheme uint8, n uint32, scale float64) []byte {
	h.Flags = (h.Flags &^ FlagTrimmed) | FlagMeta
	h.Count = 0
	buf := make([]byte, MetaSize)
	h.marshal(buf)
	pl := buf[HeaderSize:]
	pl[0] = scheme
	pl[1] = h.P
	pl[2] = h.Q
	pl[3] = 0
	binary.BigEndian.PutUint32(pl[4:], n)
	binary.BigEndian.PutUint64(pl[8:], math.Float64bits(scale))
	binary.BigEndian.PutUint32(buf[offHeadCRC:], headerChecksum(buf, pl))
	binary.BigEndian.PutUint32(buf[offTailCRC:], 0)
	return buf
}

// ParseMetaPacket decodes and verifies a metadata packet.
func ParseMetaPacket(buf []byte) (*MetaPacket, error) {
	h, err := ParseHeader(buf)
	if err != nil {
		return nil, err
	}
	if err := checkMeta(buf, &h); err != nil {
		return nil, err
	}
	pl := buf[HeaderSize:MetaSize]
	return &MetaPacket{
		Header: h,
		Scheme: pl[0],
		N:      binary.BigEndian.Uint32(pl[4:]),
		Scale:  math.Float64frombits(binary.BigEndian.Uint64(pl[8:])),
	}, nil
}

// checkMeta makes every accept/reject decision about buf as a metadata
// packet whose header is h, without allocating.
func checkMeta(buf []byte, h *Header) error {
	if !h.IsMeta() {
		return ErrNotMeta
	}
	if len(buf) < MetaSize {
		return fmt.Errorf("%w: metadata payload incomplete", ErrTooShort)
	}
	if headerChecksum(buf, buf[HeaderSize:MetaSize]) != binary.BigEndian.Uint32(buf[offHeadCRC:]) {
		return fmt.Errorf("%w (metadata)", ErrBadChecksum)
	}
	return nil
}
