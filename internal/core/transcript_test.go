package core

import (
	"bytes"
	"testing"

	"trimgrad/internal/quant"
	"trimgrad/internal/vecmath"
)

// TestTranscriptRecordReplay is experiment E11 (§5.4): record the fate of
// every packet under random congestion, then replay the transcript over a
// reliable channel and verify the reconstructed gradient is bit-identical.
func TestTranscriptRecordReplay(t *testing.T) {
	cfg := testConfig(quant.RHT, 1)
	enc, _ := NewEncoderWith(WithConfig(cfg))
	grad := gaussianGrad(10, 1<<13)
	msg, _ := enc.Encode(5, 9, grad)

	// Recorded run: random trimming + dropping.
	rec := NewRecorder(chain{NewTrimmer(0.4, 3), newDropper(0.1, 4)})
	outA, statsA := transfer(t, cfg, msg, rec)

	if statsA.TrimmedPackets == 0 || statsA.Packets == statsA.ExpectedPackets {
		t.Fatalf("test needs both trims and drops: %+v", statsA)
	}
	if len(rec.Transcript.Events) != len(msg.Data) {
		t.Fatalf("transcript has %d events, want %d", len(rec.Transcript.Events), len(msg.Data))
	}

	// Serialize and reload the transcript, as a real replay would.
	var buf bytes.Buffer
	if err := rec.Transcript.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTranscript(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Replay run: re-encode the same gradient (same epoch/msg → same
	// seeds) and apply the recorded fates.
	msg2, _ := enc.Encode(5, 9, grad)
	outB, statsB := transfer(t, cfg, msg2, NewPlayer(loaded))

	if statsB.TrimmedPackets != statsA.TrimmedPackets {
		t.Errorf("replay trims %d != recorded %d", statsB.TrimmedPackets, statsA.TrimmedPackets)
	}
	if dropsA, dropsB := statsA.ExpectedPackets-statsA.Packets, statsB.ExpectedPackets-statsB.Packets; dropsB != dropsA {
		t.Errorf("replay drops %d != recorded %d", dropsB, dropsA)
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("replayed gradient differs at %d: %v vs %v", i, outA[i], outB[i])
		}
	}
}

// TestPlayerUnknownPacketsPass: packets not in the transcript deliver
// untouched.
func TestPlayerUnknownPacketsPass(t *testing.T) {
	cfg := testConfig(quant.Sign, 1)
	enc, _ := NewEncoderWith(WithConfig(cfg))
	grad := gaussianGrad(11, 2048)
	msg, _ := enc.Encode(1, 1, grad)
	player := NewPlayer(&Transcript{})
	out, stats := transfer(t, cfg, msg, player)
	if stats.TrimmedPackets != 0 || stats.Packets != stats.ExpectedPackets {
		t.Errorf("empty transcript should deliver everything: %+v", stats)
	}
	if nm := vecmath.NMSE(grad, out); nm > 1e-10 {
		t.Errorf("NMSE %g", nm)
	}
}

func TestFateString(t *testing.T) {
	if FateDelivered.String() != "delivered" ||
		FateTrimmed.String() != "trimmed" ||
		FateDropped.String() != "dropped" {
		t.Error("fate names wrong")
	}
	if PacketFate(9).String() == "" {
		t.Error("unknown fate should still print")
	}
}

func TestLoadTranscriptRejectsGarbage(t *testing.T) {
	if _, err := LoadTranscript(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage transcript should fail")
	}
}

// TestRecorderPartialTrimKeptBytes: a mid-tail trim records the kept size
// and replays to the same size.
func TestRecorderPartialTrimKeptBytes(t *testing.T) {
	cfg := testConfig(quant.Sign, 1)
	enc, _ := NewEncoderWith(WithConfig(cfg))
	grad := gaussianGrad(12, 2048)
	msg, _ := enc.Encode(1, 1, grad)

	trimmer := NewTrimmer(1.0, 5)
	trimmer.Target = 600 // mid-tail target
	rec := NewRecorder(trimmer)
	outA, _ := transfer(t, cfg, msg, rec)

	for _, ev := range rec.Transcript.Events {
		if ev.Fate != FateTrimmed || ev.KeptBytes == 0 {
			t.Fatalf("expected trimmed event with kept bytes, got %+v", ev)
		}
	}
	msg2, _ := enc.Encode(1, 1, grad)
	outB, _ := transfer(t, cfg, msg2, NewPlayer(&rec.Transcript))
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("partial-trim replay differs at %d", i)
		}
	}
}
