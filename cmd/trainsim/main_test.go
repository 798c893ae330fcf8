package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadInvocations: every value no run can mean must be refused
// with exit status 2 and exactly one diagnostic line, before any training
// (a rejected invocation prints no epoch table).
func TestRejectsBadInvocations(t *testing.T) {
	// MISSING in args stands for a path whose directory does not exist.
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out")
	for _, tc := range []struct {
		args string
		want string // substring of the diagnostic
	}{
		{"-trim 2", "TrimRate must be a probability"},
		{"-trim -1", "TrimRate must be a probability"},
		{"-trim NaN", "TrimRate must be a probability"},
		{"-drop 7", "DropRate must be a probability"},
		{"-lr -0.1", "LR must be finite and non-negative"},
		{"-workers 0", "-workers must be at least 1"},
		{"-workers -2", "-workers must be at least 1"},
		{"-hard=false -workers 3001", "3001 workers for 3000 samples"},
		{"-epochs 0", "-epochs must be at least 1"},
		{"-epochs -3", "-epochs must be at least 1"},
		{"-scheme morse", "morse"},
		{"-record a -replay b", "mutually exclusive"},
		{"-replay MISSING", "no-such-dir"},
		{"-hard=false -epochs 1 -record MISSING", "no-such-dir"},
		{"-hard=false -epochs 1 -metrics MISSING", "no-such-dir"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := strings.Fields(strings.ReplaceAll(tc.args, "MISSING", missing))
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Errorf("exit status %d, want 2", code)
			}
			msg := stderr.String()
			if !strings.Contains(msg, tc.want) || strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr = %q, want one line containing %q", msg, tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("a rejected invocation trained: %q", stdout.String())
			}
		})
	}
}

func TestUnknownFlagIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// trainsim runs one invocation that must succeed and returns its stdout.
func trainsim(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit status %d, stderr %q", args, code, stderr.String())
	}
	return stdout.String()
}

func TestSmallRunReports(t *testing.T) {
	out := trainsim(t, "-hard=false", "-epochs", "1")
	if !strings.HasPrefix(out, "epoch  wall_s") || !strings.Contains(out, "\n    1  ") || !strings.Contains(out, "[ok]") {
		t.Errorf("report:\n%s", out)
	}
}

// TestReplayReproducesRecordedRun: §5.4 — a same-seed run replaying the
// transcript another run recorded prints the same epoch rows. The replay
// passes no -trim, so its packet fates can only have come from the file.
func TestReplayReproducesRecordedRun(t *testing.T) {
	file := filepath.Join(t.TempDir(), "trims.json")
	common := []string{"-hard=false", "-epochs", "2", "-scheme", "sq"}
	epochRows := func(out string) string {
		rows, _, ok := strings.Cut(out, "sq trim=")
		if !ok || !strings.Contains(rows, "\n    2  ") {
			t.Fatalf("no two-epoch table and summary in:\n%s", out)
		}
		return rows
	}
	recorded := trainsim(t, append(common, "-trim", "0.1", "-record", file)...)
	if !strings.Contains(recorded, "packet fates to "+file) {
		t.Errorf("recording run did not report its transcript:\n%s", recorded)
	}
	replayed := trainsim(t, append(common, "-replay", file)...)
	if got, want := epochRows(replayed), epochRows(recorded); got != want {
		t.Errorf("replay differs from the recorded run:\nrecorded:\n%s\nreplayed:\n%s", want, got)
	}
	if untrimmed := trainsim(t, common...); epochRows(untrimmed) == epochRows(recorded) {
		t.Error("the recorded run equals an untrimmed one: the transcript carried no trims")
	}
}
