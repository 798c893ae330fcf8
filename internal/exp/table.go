// Package exp is the experiment harness that regenerates every figure and
// quantitative claim of the paper's evaluation (the E1–E11 index in
// DESIGN.md). Each experiment is a named Runner that writes aligned text
// tables (and optionally CSV) so `trimbench -exp fig3` prints the same
// series the paper plots.
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"trimgrad/internal/obs"
)

// Table is a simple aligned-text / CSV table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends one row; cells are formatted with %v, floats compactly.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.1f", v)
	case v >= 1 || v <= -1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	b.WriteByte('\n')
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// WriteCSV renders the table as CSV (naive quoting: cells contain no
// commas by construction).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Options configures experiment scale.
type Options struct {
	// Quick shrinks datasets/epochs for smoke runs and CI.
	Quick bool
	// Seed fixes all experiment randomness.
	Seed uint64
	// CSV switches output to CSV.
	CSV bool
	// Obs, when non-nil, collects every metric and span the experiment's
	// instrumented layers emit; runners that build their own fabric or
	// trainer bind it through the usual WithRegistry options. Nil keeps
	// telemetry off (runners may still use a private registry internally,
	// e.g. fig5 derives its breakdown from spans).
	Obs *obs.Registry
}

// Runner executes one named experiment.
type Runner struct {
	Name string
	// Desc is a one-line description shown by `trimbench -list`.
	Desc string
	Run  func(w io.Writer, o Options) error
}

var registry []Runner

func register(r Runner) { registry = append(registry, r) }

// Experiments returns all registered experiments sorted by name.
func Experiments() []Runner {
	out := append([]Runner(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup finds an experiment by name.
func Lookup(name string) (Runner, bool) {
	for _, r := range registry {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

// emit writes the table in the format Options selects.
func emit(w io.Writer, o Options, t *Table) error {
	if o.CSV {
		return t.WriteCSV(w)
	}
	_, err := t.WriteTo(w)
	return err
}

// stopwatch starts a wall-clock timer; the returned function reports the
// time elapsed since. It is the one place the harness reads the wall clock:
// experiments time their own cost with it (encode time, simulator
// throughput) and print that as a perf column.
func stopwatch() (elapsed func() time.Duration) {
	start := time.Now() //trimlint:allow determinism wall clock measures what an experiment costs to run; it is a perf column, never part of seeded output
	return func() time.Duration { return time.Since(start) }
}
