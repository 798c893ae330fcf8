package wire

import "encoding/binary"

// IsTrimgrad reports whether buf begins with the trimgrad magic. It is a
// cheap gate for transports that also carry opaque application payloads:
// only buffers claiming to be trimgrad packets are held to Validate.
func IsTrimgrad(buf []byte) bool {
	return len(buf) >= offVersion && binary.BigEndian.Uint16(buf[offMagic:]) == Magic
}

// Validate verifies buf as whichever packet kind its flags claim: header
// sanity, geometry, and every checksum the packet's trim state allows. It
// runs exactly the checks the kind's Parse*Packet runs (both call the same
// function), so Validate(buf) == nil precisely when that parse succeeds —
// but it unpacks nothing and allocates nothing, which is what lets a
// transport admit a packet for the price of its CRCs. A nil return means
// the surviving bytes are intact; note that the tail bytes of a trimmed
// packet carry no checksum (Trim zeroes the tail CRC), so corruption
// confined to a trimmed tail is undetectable by design — the decode path
// treats those coordinates as lossy anyway.
func Validate(buf []byte) error {
	h, err := ParseHeader(buf)
	if err != nil {
		return err
	}
	switch {
	case h.IsMeta():
		err = checkMeta(buf, &h)
	case h.IsNaive():
		_, err = checkNaive(buf, &h)
	case h.IsAgg():
		_, err = checkAgg(buf, &h)
	default:
		_, err = checkData(buf, &h)
	}
	return err
}
