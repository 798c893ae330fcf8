package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkFile compares got with testdata/<name> byte for byte, or re-records
// the file under -update.
func checkFile(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s differs at line %d:\n got %s\nwant %s", path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(g), len(w))
}

// maskColumns blanks the named CSV columns (wall-clock readings) so the
// rest of the table can be pinned.
func maskColumns(csv string, names ...string) string {
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	header := strings.Split(lines[0], ",")
	for i, line := range lines[1:] {
		cells := strings.Split(line, ",")
		for c, h := range header {
			for _, n := range names {
				if h == n {
					cells[c] = "*"
				}
			}
		}
		lines[i+1] = strings.Join(cells, ",")
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestTableGoldens pins the printed tables of every experiment that drives
// encoded gradients through a simulated fabric — what `trimbench -exp
// <name> -quick -csv` prints at seed 0 — against files recorded from the
// hand-wired rigs these experiments used before they shared one scenario
// runner. A diff here means a simulated result moved, not that a table
// needs re-recording.
func TestTableGoldens(t *testing.T) {
	for _, name := range []string{
		"incast", "baseline-drops", "multilevel", "fabricsweep", "chaos", "aggsweep", "strongscale",
	} {
		r, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		var buf bytes.Buffer
		if err := r.Run(&buf, Options{Quick: true, CSV: true}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := buf.String()
		if name == "strongscale" {
			// The CPU count is in no CSV line; wall time and the speedup
			// derived from it are the only machine-dependent cells.
			got = maskColumns(got, "wall_ms", "speedup")
		}
		checkFile(t, "table_"+name+".csv", []byte(got))
	}
}

// TestStrongScaleDigests pins a hash of everything each E14 cell observes
// (the merged telemetry export, completions, straggler FCT, the virtual
// clock and the event count) for the quick cells and the full sweep.
func TestStrongScaleDigests(t *testing.T) {
	var out bytes.Buffer
	cell := func(kind, workload string, shards, dim int) {
		_, digest, _, err := runShardCell(kind, workload, shards, dim, Options{})
		if err != nil {
			t.Fatalf("%s/%s/%d: %v", kind, workload, shards, err)
		}
		fmt.Fprintf(&out, "%s %s shards=%d dim=%d %x\n", kind, workload, shards, dim, sha256.Sum256([]byte(digest)))
	}
	for _, shards := range []int{1, 2, 4} {
		cell("fattree", "incast", shards, 1<<12)
	}
	for _, kind := range []string{"fattree", "leafspine"} {
		for _, workload := range []string{"incast", "alltoall"} {
			for _, shards := range []int{1, 2, 4} {
				cell(kind, workload, shards, 1<<14)
			}
		}
	}
	checkFile(t, "strongscale_digests.txt", out.Bytes())
}
