package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsBadInvocations: every malformed flag value must be refused
// with exit status 2 and exactly one diagnostic line, before any
// simulation runs.
func TestRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the diagnostic
	}{
		{"-mode bogus", "-mode must be trim or drop"},
		{"-mode drop -agg", "-agg requires -mode trim"},
		{"-gbps 0", "-gbps must be positive"},
		{"-gbps -1", "-gbps must be positive"},
		{"-gbps NaN", "-gbps must be positive"},
		{"-buffer -5", "-buffer must be positive"},
		{"-buffer 0", "-buffer must be positive"},
		{"-dim 0", "-dim must be positive"},
		{"-senders 0", "-senders must be positive"},
		{"-topo fattree -k 0", "-k must be positive"},
		{"-topo leafspine -leaves 0", "-leaves must be positive"},
		{"-topo leafspine -spines -2", "-spines must be positive"},
		{"-topo leafspine -hostsperleaf 0", "-hostsperleaf must be positive"},
		{"-topo torus", "unknown topology"},
		// Rejected by Scenario.Validate, before a simulator exists.
		{"-topo fattree -k 3", "even k"},
		{"-topo leafspine -oversub -1", "oversubscription ratio"},
		{"-topo leafspine -oversub NaN", "oversubscription ratio"},
		{"-workload bogus", "unknown workload"},
		{"-workload incast:99", "incast fan 99 exceeds"},
		{"-shards -1", "shard count -1 is outside 0..1"},
		{"-shards 5", "shard count 5 is outside 0..1"},
		{"-mice -5", "rates must be finite and ≥ 0"},
		{"-mice NaN", "rates must be finite and ≥ 0"},
		{"-elephants -1", "rates must be finite and ≥ 0"},
		{"-cross -1", "rates must be finite and ≥ 0"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 2 {
				t.Errorf("exit status %d, want 2", code)
			}
			msg := stderr.String()
			if !strings.Contains(msg, tc.want) || strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr = %q, want one line containing %q", msg, tc.want)
			}
			if !strings.HasPrefix(msg, "netsim: ") || strings.Count(msg, "netsim:") != 1 {
				t.Errorf("stderr = %q, want exactly one netsim: prefix", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("a rejected invocation printed a report: %q", stdout.String())
			}
		})
	}
}

// TestUnknownFlagIsUsageError: the -topology alias and the -arena switch
// are gone, and like any undefined flag they exit 2 with the usage text.
func TestUnknownFlagIsUsageError(t *testing.T) {
	for _, args := range [][]string{{"-topology", "star"}, {"-arena"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit status %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined") {
			t.Errorf("%v: stderr = %q", args, stderr.String())
		}
	}
}

// TestSmallRunReports drives one tiny incast per queue mode end to end.
func TestSmallRunReports(t *testing.T) {
	for _, mode := range []string{"trim", "drop"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-senders", "2", "-dim", "2048", "-shards", "1", "-mode", mode}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-mode %s: exit status %d, stderr %q", mode, code, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, "mode="+mode) || !strings.Contains(out, "completed           2/2") {
			t.Errorf("-mode %s report:\n%s", mode, out)
		}
	}
}
