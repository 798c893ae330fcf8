package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trimgrad/internal/exp"
)

// TestListNamesEveryExperiment: -list exits 0 and names each registered
// experiment; with no arguments the same list comes with exit status 2.
func TestListNamesEveryExperiment(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-list"}, 0},
		{nil, 2},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit status %d, want %d", tc.args, code, tc.code)
		}
		out := stdout.String()
		if !strings.HasPrefix(out, "available experiments:\n") {
			t.Errorf("%v: stdout = %q", tc.args, out)
		}
		for _, r := range exp.Experiments() {
			if !strings.Contains(out, "  "+r.Name+" ") {
				t.Errorf("%v: list misses %s", tc.args, r.Name)
			}
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	msg := stderr.String()
	if !strings.HasPrefix(msg, "trimbench: ") || !strings.Contains(msg, `"nope"`) || strings.Count(msg, "\n") != 1 {
		t.Errorf("stderr = %q, want one line naming the experiment", msg)
	}
	if stdout.Len() != 0 {
		t.Errorf("a rejected invocation printed %q", stdout.String())
	}
}

// TestWireMathCSV: E5 is the paper's §2 arithmetic, so its table is fixed.
func TestWireMathCSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "wire-math", "-csv"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	const want = `# wire-math — §2 packet arithmetic (E5)

accounting,coords,full_frame_B,trimmed_frame_B,compression
paper (42B hdr only),364,1500,88,94.1%
trimgrad wire format,354,1499,127,91.5%
P=8 multi-level,354,1498,436,70.9%
P=1 multi-level,354,1499,127,91.5%
`
	if got := stdout.String(); got != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricsFileIsJSONL: -metrics writes the run's telemetry, one JSON
// object a line. fig5 is used because wire-math records none.
func TestMetricsFileIsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig5", "-quick", "-metrics", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("not a JSON line: %q", line)
		}
	}
	if !strings.Contains(string(b), `"name":"core.encode.packets_total"`) {
		t.Errorf("%d lines, none the encode packet counter", len(lines))
	}
}
