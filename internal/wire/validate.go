package wire

import "encoding/binary"

// IsTrimgrad reports whether buf begins with the trimgrad magic. The
// transport refuses, at hand-over, a payload without it, so a receiver may
// treat any received payload Validate refuses as corruption.
func IsTrimgrad(buf []byte) bool {
	return len(buf) >= offVersion && binary.BigEndian.Uint16(buf[offMagic:]) == Magic
}

// Validate verifies buf as whichever packet kind its flags claim: header
// sanity, geometry, and every checksum the packet's length leaves (a cut
// is told by its length, Header.IsCut), and returns the header it checked.
// It runs exactly the checks the kind's Parse*Packet runs (both call the
// same function), so Validate(buf) succeeds precisely when that parse does
// — but it unpacks nothing and allocates nothing, which is what lets a
// transport admit a packet for the price of its CRCs. A nil error means
// the surviving bytes are intact; note that the tail bytes of a cut packet
// carry no checksum (a short tail region is never checked), so corruption
// confined to a cut tail is undetectable by design — the decode path
// treats those coordinates as lossy anyway.
func Validate(buf []byte) (Header, error) {
	h, err := ParseHeader(buf)
	if err != nil {
		return h, err
	}
	return h, check(buf, &h)
}

// check runs the check function of the kind h's flags claim.
func check(buf []byte, h *Header) (err error) {
	switch {
	case h.IsMeta():
		err = checkMeta(buf, h)
	case h.IsAgg():
		_, err = checkAgg(buf, h)
	default:
		_, err = checkData(buf, h)
	}
	return err
}
