package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trimgrad/internal/wire"
)

// demoTrim87 is the transcript of `trimwire -demo -trim 87`: the paper's
// §2 arithmetic on one MTU packet (1457 → 85 bytes, 91.5 % on the wire).
// The demo packet is seeded, so any byte of drift here is a change to the
// encoder, the packer, Trim or the parser.
const demoTrim87 = `(no -in given: inspecting a generated demo packet)
Trim(87): 1457 -> 85 bytes

kind      data
cut       true
flow      1
message   2  row 0  start 0  count 354
geometry  P=1 head bits, Q=31 tail bits per coordinate
seed      0x7
size      85 bytes on wire (+42 network overhead)
payload   heads complete (354), tails 0/354 (trimmed)
regions   header[0:40) heads[40:85) tails[85:1457)
trim      boundary at 85 bytes → 91.5% compression
`

func TestDemoTrimGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-demo", "-trim", "87"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	if got := stdout.String(); got != demoTrim87 {
		t.Errorf("transcript drifted:\n--- got\n%s--- want\n%s", got, demoTrim87)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr = %q, want empty", stderr.String())
	}
}

// TestRejectsBadInvocations: a missing input file and a negative trim
// target are refused with exit status 2 and exactly one diagnostic line,
// before anything is inspected.
func TestRejectsBadInvocations(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such.bin")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-in", missing}, "no-such.bin"},
		{[]string{"-demo", "-trim", "-1"}, "-trim must be non-negative"},
		{[]string{"-trim", "-40"}, "-trim must be non-negative"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit status %d, want 2", tc.args, code)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "trimwire: ") || !strings.Contains(msg, tc.want) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one line containing %q", tc.args, msg, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a rejected invocation printed a report: %q", tc.args, stdout.String())
		}
	}
}

// aggTrimmed is the transcript of `trimwire -in` on a switch-built aggregate
// of three packets whose survivor prefix is 3 of 8 coordinates.
const aggTrimmed = `kind      aggregate
cut       true
flow      3
message   2  row 5  start 16  count 8
geometry  P=32 head bits, Q=32 tail bits per coordinate
seed      0x9
size      84 bytes on wire (+42 network overhead)
payload   sums of 3 packets, full-precision sums 3/8
`

func TestInspectAggregate(t *testing.T) {
	sums := []float32{1, -2, 3.5, 0, 8, -0.25, 6, 7}
	agg, err := wire.BuildAggPacket(wire.Header{Flow: 3, Message: 2, Row: 5, Start: 16, Count: 8, Seed: 9}, sums, sums[:3])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "agg.bin")
	if err := os.WriteFile(path, agg, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-in", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	if got := stdout.String(); got != aggTrimmed {
		t.Errorf("transcript:\n--- got\n%s--- want\n%s", got, aggTrimmed)
	}

	// A flag bit no kind defines makes the buffer foreign.
	agg[3] |= 0x40
	if err := os.WriteFile(path, agg, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"-in", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	if got := stdout.String(); !strings.HasPrefix(got, "not a trimgrad packet: wire: undefined flag bits") {
		t.Errorf("unknown flag bit: %q", got)
	}
}

// TestTrimFileRoundTrip drives -out and -in: the trimmed demo packet is
// written, read back, and still verifies. A trim writes no header byte, so
// the flags byte reads 0 and the cut is told by its length.
func TestTrimFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trimmed.bin")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trim", "600", "-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Validate(buf); err != nil {
		t.Fatalf("written packet does not verify: %v", err)
	}
	stdout.Reset()
	if code := run([]string{"-in", path, "-hex"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "cut       true") || !strings.Contains(out, "(trimmed)") ||
		!strings.Contains(out, "000000  54 47 01 00") {
		t.Errorf("inspection of the written packet:\n%s", out)
	}
}
