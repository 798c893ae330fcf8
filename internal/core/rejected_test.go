package core

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"trimgrad/internal/quant"
	"trimgrad/internal/vecmath"
	"trimgrad/internal/wire"
)

// TestHandleCountsRejections verifies the decoder records every refused
// packet in Stats.RejectedPackets — garbage bytes and wrong-message
// packets count — while data arriving before its row metadata is buffered
// and replayed, not rejected.
func TestHandleCountsRejections(t *testing.T) {
	cfg := testConfig(quant.RHT, 0)
	enc, err := NewEncoderWith(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	grad := gaussianGrad(21, 1<<11)
	msg, err := enc.Encode(1, 7, grad)
	if err != nil {
		t.Fatal(err)
	}

	dec, err := NewDecoderWith(7, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Data before metadata: buffered for replay once the meta lands.
	if err := dec.Handle(msg.Data[0]); err != nil {
		t.Fatalf("early data should be buffered, got %v", err)
	}
	// Garbage bytes: rejected.
	if err := dec.Handle([]byte{0xde, 0xad}); err == nil {
		t.Fatal("garbage should be rejected")
	}
	if got := dec.Stats().RejectedPackets; got != 1 {
		t.Fatalf("RejectedPackets = %d after 1 reject, want 1", got)
	}

	// A wrong-message packet (encoded as msg 8) is rejected too.
	other, err := enc.Encode(1, 8, grad)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Handle(other.Meta[0]); err == nil {
		t.Fatal("wrong-message packet should be rejected")
	}

	// The rest of the legitimate stream: the metas replay the buffered
	// early packet, so every data packet is accepted exactly once.
	for _, m := range msg.Meta {
		if err := dec.Handle(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range msg.Data[1:] {
		if err := dec.Handle(d); err != nil {
			t.Fatal(err)
		}
	}
	_, stats, err := dec.Reconstruct(msg.N)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RejectedPackets != 2 {
		t.Fatalf("RejectedPackets = %d, want 2", stats.RejectedPackets)
	}
	if stats.Packets != len(msg.Data) {
		t.Fatalf("accepted data packets = %d, want %d", stats.Packets, len(msg.Data))
	}
}

// TestDecoderReordersDataBeforeMeta feeds an entire message's data packets
// before any metadata and expects a byte-correct reconstruction: the
// pending buffer must hold the early packets and replay them when the
// reliable metadata finally lands.
func TestDecoderReordersDataBeforeMeta(t *testing.T) {
	cfg := testConfig(quant.RHT, 0)
	enc, err := NewEncoderWith(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	grad := gaussianGrad(33, 1<<12)
	msg, err := enc.Encode(1, 9, grad)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoderWith(9, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range msg.Data {
		if err := dec.Handle(d); err != nil {
			t.Fatalf("early data: %v", err)
		}
	}
	for _, m := range msg.Meta {
		if err := dec.Handle(m); err != nil {
			t.Fatal(err)
		}
	}
	out, stats, err := dec.Reconstruct(msg.N)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Packets != len(msg.Data) {
		t.Fatalf("accepted %d packets, want %d", stats.Packets, len(msg.Data))
	}
	if stats.RejectedPackets != 0 {
		t.Fatalf("RejectedPackets = %d, want 0", stats.RejectedPackets)
	}
	if nm := vecmath.NMSE(grad, out); nm > 1e-8 {
		t.Errorf("NMSE = %g after full reorder", nm)
	}
}

// TestHandleDataAllocatesNothing pins the receive-path budget: once a
// row's metadata is present, a data packet — full or trimmed, first copy or
// duplicate — is verified, unpacked into reused scratch and decoded into
// the row by either decoder without a single allocation.
func TestHandleDataAllocatesNothing(t *testing.T) {
	cfg := testConfig(quant.RHT, 0)
	enc, err := NewEncoderWith(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := enc.Encode(1, 9, gaussianGrad(34, 1<<12))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoderWith(9, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := NewSumDecoder(9, 1, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	full := msg.Data[0]
	trimmed := wire.Trim(append([]byte(nil), msg.Data[1]...), 0)
	for name, handle := range map[string]func([]byte) error{
		"Decoder": dec.Handle, "SumDecoder": sum.Handle,
	} {
		for _, m := range msg.Meta {
			if err := handle(m); err != nil {
				t.Fatal(err)
			}
		}
		for _, pkt := range [][]byte{full, trimmed} {
			if err := handle(pkt); err != nil { // first arrival sizes the scratch
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(50, func() { _ = handle(pkt) }); n != 0 {
				t.Errorf("%s.Handle allocates %v times per %d-byte data packet, want 0", name, n, len(pkt))
			}
		}
	}
}

// TestEarlyCorruptDataRejectedOnArrival: a data packet that outruns its
// metadata is verified before it is parked, so corruption is refused (and
// counted) at once instead of occupying the pending buffer until replay.
func TestEarlyCorruptDataRejectedOnArrival(t *testing.T) {
	cfg := testConfig(quant.RHT, 0)
	enc, err := NewEncoderWith(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := enc.Encode(1, 9, gaussianGrad(35, 1<<11))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), msg.Data[0]...)
	bad[wire.HeaderSize+1] ^= 0x04
	dec, err := NewDecoderWith(9, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := NewSumDecoder(9, 1, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	type decoder interface {
		Handle([]byte) error
		Stats() Stats
	}
	for name, d := range map[string]decoder{"Decoder": dec, "SumDecoder": sum} {
		if err := d.Handle(bad); !errors.Is(err, wire.ErrBadChecksum) {
			t.Fatalf("%s: early corrupt packet: got %v, want ErrBadChecksum", name, err)
		}
		if err := d.Handle(msg.Data[0]); err != nil {
			t.Fatalf("%s: early intact packet should be buffered, got %v", name, err)
		}
		for _, m := range msg.Meta {
			if err := d.Handle(m); err != nil {
				t.Fatal(err)
			}
		}
		if s := d.Stats(); s.RejectedPackets != 1 || s.Packets != 1 {
			t.Fatalf("%s: rejected/accepted = %d/%d, want 1/1", name, s.RejectedPackets, s.Packets)
		}
	}
}

// TestForgedMetadataRejectedAtHandle: a CRC-valid metadata packet whose
// geometry is not the configuration's — a row longer than RowSize, an empty
// one, a scheme other than the configured one, head or tail widths its
// Params do not produce, a rotated row no inverse transform exists for, a
// row id no message has — is refused when it arrives, by both decoders
// alike: counted, allocating next to nothing however long a row it claims,
// and leaving the row open to the genuine metadata, so the message still
// decodes to exactly what an undisturbed decoder makes of it.
func TestForgedMetadataRejectedAtHandle(t *testing.T) {
	cfg := testConfig(quant.RHT, 0)
	enc, err := NewEncoderWith(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	const msgID = 9
	grad := gaussianGrad(36, 3*cfg.RowSize)
	msg, err := enc.Encode(1, msgID, grad)
	if err != nil {
		t.Fatal(err)
	}
	genuine, err := wire.ParseMetaPacket(msg.Meta[1])
	if err != nil {
		t.Fatal(err)
	}
	forge := func(edit func(m *wire.MetaPacket)) []byte {
		m := *genuine
		edit(&m)
		return wire.BuildMetaPacket(m.Header, m.Scheme, m.N, m.Scale)
	}
	forged := []struct {
		name string
		pkt  []byte
	}{
		{"N = 2^24", forge(func(m *wire.MetaPacket) { m.N = 1 << 24 })},
		{"N = 2^32-1", forge(func(m *wire.MetaPacket) { m.N = math.MaxUint32 })},
		{"N = RowSize+1", forge(func(m *wire.MetaPacket) { m.N = uint32(cfg.RowSize) + 1 })},
		{"N = 0", forge(func(m *wire.MetaPacket) { m.N = 0 })},
		{"N not a power of two", forge(func(m *wire.MetaPacket) { m.N = uint32(cfg.RowSize) - 24 })},
		{"unknown scheme", forge(func(m *wire.MetaPacket) { m.Scheme = 200 })},
		{"another scheme", forge(func(m *wire.MetaPacket) { m.Scheme = uint8(quant.SD) })},
		{"P = 8", forge(func(m *wire.MetaPacket) { m.P = 8 })},
		{"Q = 16", forge(func(m *wire.MetaPacket) { m.Q = 16 })},
		{"row 2^31", forge(func(m *wire.MetaPacket) { m.Row = 1 << 31 })}, // rows are a slice: the id must not size it
	}

	type decoder interface {
		Handle([]byte) error
		Reconstruct(int) ([]float32, Stats, error)
		Stats() Stats
	}
	build := map[string]func() (decoder, error){
		"Decoder":    func() (decoder, error) { return NewDecoderWith(msgID, WithConfig(cfg)) },
		"SumDecoder": func() (decoder, error) { return NewSumDecoder(msgID, 1, WithConfig(cfg)) },
	}
	for name, mk := range build {
		clean, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		// Row 0 is set up before the forgeries, row 1 is the one they claim,
		// row 2's metadata comes after them.
		for _, d := range []decoder{clean, dec} {
			if err := d.Handle(msg.Meta[0]); err != nil {
				t.Fatal(err)
			}
		}
		for i, f := range forged {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := dec.Handle(f.pkt)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: %s: accepted", name, f.name)
			}
			if got := dec.Stats().RejectedPackets; got != i+1 {
				t.Errorf("%s: %s: RejectedPackets = %d, want %d", name, f.name, got, i+1)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<10 {
				t.Errorf("%s: %s: rejecting it allocated %d bytes, want < 1 KB", name, f.name, grew)
			}
		}
		for _, d := range []decoder{clean, dec} {
			for _, pkt := range append(append([][]byte{}, msg.Meta[1:]...), msg.Data...) {
				if err := d.Handle(pkt); err != nil {
					t.Fatalf("%s: genuine packet after the forgeries: %v", name, err)
				}
			}
		}
		want, wantStats, err := clean.Reconstruct(len(grad))
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := dec.Reconstruct(len(grad))
		if err != nil {
			t.Fatalf("%s: the message no longer decodes: %v", name, err)
		}
		requireSameBits(t, name, got, want)
		wantStats.RejectedPackets = len(forged)
		if gotStats != wantStats {
			t.Errorf("%s: stats\n got %+v\nwant %+v", name, gotStats, wantStats)
		}
	}
}
