package wire

import (
	"bytes"
	"testing"
)

// Fuzz targets: every parser and the switch-side Trim must be total —
// no panics, no out-of-bounds — on arbitrary byte strings. A switch or
// receiver faces attacker-controlled/corrupted bytes by definition.

func seedPackets(f *testing.F) {
	f.Helper()
	heads, tails := randHeadsTails(1, 50, 1, 31)
	h := testHeader(50, 1, 31)
	data, err := BuildDataPacket(h, heads, tails)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), data...))
	f.Add(append([]byte(nil), Trim(data, 0)...))
	f.Add(BuildMetaPacket(h, 3, 1024, 2.5))
	unknown := append([]byte(nil), data...)
	unknown[offFlags] |= 0x40 // a flag bit no kind defines
	f.Add(unknown)
	f.Add([]byte{})
	f.Add([]byte{0x54, 0x47, 1, 0})
	f.Add(make([]byte, HeaderSize))
}

func FuzzParseDataPacket(f *testing.F) {
	seedPackets(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := ParseDataPacket(data)
		if err == nil {
			// A successfully parsed packet has consistent invariants.
			if len(pkt.Heads) != int(pkt.Count) || len(pkt.Tails) != int(pkt.Count) {
				t.Fatal("inconsistent parse result")
			}
			if pkt.TailCount > int(pkt.Count) {
				t.Fatal("TailCount exceeds Count")
			}
		}
	})
}

func FuzzParseMetaPacket(f *testing.F) {
	seedPackets(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseMetaPacket(data)
	})
}

func FuzzTrim(f *testing.F) {
	seedPackets(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		for _, target := range []int{0, 40, 87, 1000, 1 << 20} {
			out := Trim(data, target)
			if len(out) > len(data) || !bytes.Equal(out, orig[:len(out)]) {
				t.Fatal("Trim returned no prefix of the packet")
			}
			// Whatever Trim returns must still be parseable-or-rejected
			// without panicking.
			_, _ = ParseDataPacket(out)
			_, _ = ParseMetaPacket(out)
			_, _ = ParseAggPacket(out)
		}
		if !bytes.Equal(data, orig) {
			t.Fatal("Trim wrote the packet")
		}
	})
}

// FuzzTrimPreservesHeads: for VALID data packets, trimming must never
// corrupt the head region.
func FuzzTrimPreservesHeads(f *testing.F) {
	f.Add(uint64(1), 50, 600)
	f.Add(uint64(2), 354, 87)
	f.Add(uint64(3), 1, 40)
	f.Fuzz(func(t *testing.T, seed uint64, n int, target int) {
		if n <= 0 || n > 354 {
			return
		}
		heads, tails := randHeadsTails(seed, n, 1, 31)
		h := testHeader(uint16(n), 1, 31)
		buf, err := BuildDataPacket(h, heads, tails)
		if err != nil {
			return
		}
		trimmed := Trim(buf, target)
		pkt, err := ParseDataPacket(trimmed)
		if err != nil {
			t.Fatalf("trimmed valid packet unparseable: %v", err)
		}
		for i := 0; i < n; i++ {
			if pkt.Heads[i] != heads[i] {
				t.Fatalf("head %d corrupted by Trim(%d)", i, target)
			}
		}
		for i := 0; i < pkt.TailCount; i++ {
			if pkt.Tails[i] != tails[i] {
				t.Fatalf("surviving tail %d corrupted by Trim(%d)", i, target)
			}
		}
	})
}
