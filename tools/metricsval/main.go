// Command metricsval validates a telemetry export produced by the obs
// JSONL exporter (`trimbench -metrics`, `trainsim -metrics`, `netsim
// -metrics`). It is the schema contract check scripts/check.sh runs
// against a real export: every line must be one well-formed record of a
// known kind, histograms must be internally consistent, and spans must
// not end before they start. Exit status 0 means the file is valid;
// diagnostics go to stderr with 1-based line numbers.
//
// Usage:
//
//	metricsval <file.jsonl> [more.jsonl ...]
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// record is the superset of the exporter's line shapes; kind dispatches
// which fields are meaningful.
type record struct {
	Kind   string   `json:"kind"`
	Name   string   `json:"name"`
	Value  *int64   `json:"value"`
	Bounds []int64  `json:"bounds"`
	Counts []int64  `json:"counts"`
	Count  int64    `json:"count"`
	Sum    int64    `json:"sum"`
	P50    int64    `json:"p50"`
	P99    int64    `json:"p99"`
	Start  int64    `json:"start"`
	End    int64    `json:"end"`
	Attrs  []attrKV `json:"attrs"`
}

type attrKV struct {
	K string `json:"k"`
	V string `json:"v"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run validates every export named in args and returns the exit code: 0
// when all are valid, 1 when any is not, 2 without a file to check.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: metricsval <file.jsonl> [more.jsonl ...]")
		return 2
	}
	code := 0
	for _, path := range args {
		n, errs := validateFile(path)
		for _, e := range errs {
			fmt.Fprintf(stderr, "metricsval: %s\n", e)
		}
		if len(errs) > 0 {
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "%s: %d records ok\n", path, n)
	}
	return code
}

// validateFile checks every line of one export; it returns the record
// count and all diagnostics (it does not stop at the first).
func validateFile(path string) (int, []string) {
	f, err := os.Open(path)
	if err != nil {
		return 0, []string{err.Error()}
	}
	defer f.Close()

	var errs []string
	fail := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Sprintf("%s:%d: %s", path, line, fmt.Sprintf(format, args...)))
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	n := 0
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			fail(line, "empty line")
			continue
		}
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			fail(line, "not a JSON object: %v", err)
			continue
		}
		if r.Name == "" {
			fail(line, "%s record with empty name", r.Kind)
			continue
		}
		switch r.Kind {
		case "counter", "gauge":
			if r.Value == nil {
				fail(line, "%s %q missing value", r.Kind, r.Name)
			}
			if r.Kind == "counter" && r.Value != nil && *r.Value < 0 {
				fail(line, "counter %q has negative value %d", r.Name, *r.Value)
			}
		case "histogram":
			validateHistogram(r, line, fail)
		case "span":
			if r.End < r.Start {
				fail(line, "span %q ends (%d) before it starts (%d)", r.Name, r.End, r.Start)
			}
			for _, kv := range r.Attrs {
				if kv.K == "" {
					fail(line, "span %q has attribute with empty key", r.Name)
				}
			}
		default:
			fail(line, "unknown kind %q", r.Kind)
			continue
		}
		n++
	}
	if err := sc.Err(); err != nil {
		errs = append(errs, fmt.Sprintf("%s: %v", path, err))
	}
	if n == 0 && len(errs) == 0 {
		errs = append(errs, fmt.Sprintf("%s: no records", path))
	}
	return n, errs
}

// validateHistogram enforces the bucket invariants the exporter
// guarantees: counts has one overflow bucket beyond bounds, bounds are
// strictly increasing, and the total matches the per-bucket sum.
func validateHistogram(r record, line int, fail func(int, string, ...any)) {
	if len(r.Counts) != len(r.Bounds)+1 {
		fail(line, "histogram %q has %d counts for %d bounds (want bounds+1)",
			r.Name, len(r.Counts), len(r.Bounds))
		return
	}
	for i := 1; i < len(r.Bounds); i++ {
		if r.Bounds[i] <= r.Bounds[i-1] {
			fail(line, "histogram %q bounds not strictly increasing at index %d (%d after %d)",
				r.Name, i, r.Bounds[i], r.Bounds[i-1])
			return
		}
	}
	var total int64
	for i, c := range r.Counts {
		if c < 0 {
			fail(line, "histogram %q has negative bucket count at index %d", r.Name, i)
			return
		}
		total += c
	}
	if total != r.Count {
		fail(line, "histogram %q count %d != sum of buckets %d", r.Name, r.Count, total)
	}
}
