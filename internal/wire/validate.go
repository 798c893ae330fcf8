package wire

import (
	"encoding/binary"
	"fmt"
)

// IsTrimgrad reports whether buf begins with the trimgrad magic. It is a
// cheap gate for code that may see foreign bytes: only buffers claiming to
// be trimgrad packets are held to Validate.
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
// packet carry no checksum (a short tail region is never checked, marked
// by Trim or not), so corruption
// confined to a trimmed tail is undetectable by design — the decode path
// treats those coordinates as lossy anyway.
func Validate(buf []byte) error {
	h, err := ParseHeader(buf)
	if err != nil {
		return err
	}
	return check(buf, &h)
}

// ValidateUntrimmed is Validate for a packet no switch has cut. It also
// convicts what no CRC covers: the packet must not be cut (IsCut: the
// FlagTrimmed bit, which the head CRC skips because a switch sets it in
// flight, must be clear, and the length whole), and the tail-CRC field of
// metadata, the one kind without a tail region, must read the zero its
// builder wrote. With those, a packet sent whole is
// rejected wherever one CRC-32C over all of it would reject it
// (transport's TestAdmissionMatchesDatagramChecksum flips every bit).
func ValidateUntrimmed(buf []byte) error {
	h, err := ParseHeader(buf)
	if err != nil {
		return err
	}
	if h.IsCut(len(buf)) {
		return fmt.Errorf("%w: an untrimmed packet is cut", ErrBadChecksum)
	}
	if h.IsMeta() && binary.BigEndian.Uint32(buf[offTailCRC:]) != 0 {
		return fmt.Errorf("%w: tail CRC on a packet without tails", ErrBadChecksum)
	}
	return check(buf, &h)
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
