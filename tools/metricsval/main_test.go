package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trimgrad/internal/obs"
)

func writeExport(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "export.jsonl")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRealExportValid: what obs.WriteJSONL writes for a counter, a
// histogram and a span is valid.
func TestRealExportValid(t *testing.T) {
	r := obs.New()
	r.Counter("port.enqueued").Add(3)
	h := r.Histogram("port.pkt_bytes", obs.BucketsBytes())
	h.Observe(64)
	h.Observe(1500)
	r.RecordSpan("ddp.round.comm", 10, 20, obs.KV{K: "scheme", V: "rht"})
	var b bytes.Buffer
	if err := obs.WriteJSONL(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	path := writeExport(t, b.String())
	var stdout, stderr bytes.Buffer
	if code := run([]string{path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if want := path + ": 3 records ok\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
}

// TestInvalidLinesRejected: each broken record fails the file with exit 1
// and a diagnostic naming its 1-based line (a valid counter is line 1).
func TestInvalidLinesRejected(t *testing.T) {
	for name, tc := range map[string]struct{ line, want string }{
		"unknown kind":   {`{"kind":"meter","name":"m","value":1}`, `unknown kind "meter"`},
		"histogram sum":  {`{"kind":"histogram","name":"h","bounds":[10],"counts":[1,1],"count":3}`, `histogram "h" count 3 != sum of buckets 2`},
		"span backwards": {`{"kind":"span","name":"s","start":20,"end":10}`, `span "s" ends (10) before it starts (20)`},
		"malformed JSON": {`{"kind":"counter",`, "not a JSON object"},
	} {
		path := writeExport(t, `{"kind":"counter","name":"c","value":1}`+"\n"+tc.line+"\n")
		var stdout, stderr bytes.Buffer
		code := run([]string{path}, &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), path+":2: "+tc.want) {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 and %q at line 2", name, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: an invalid file reported ok: %q", name, stdout.String())
		}
	}
}

func TestNoArgumentsPrintsUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if want := "usage: metricsval <file.jsonl> [more.jsonl ...]\n"; stderr.String() != want {
		t.Errorf("stderr %q, want %q", stderr.String(), want)
	}
}
