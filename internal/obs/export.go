package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
)

// The exporter renders a Snapshot deterministically: the snapshot is
// already in canonical order and every record has a fixed field order, so
// two same-seed runs produce byte-identical files (pinned by exp's
// TestChaosMetricsDeterminism).

// jsonl line shapes. Kind is always first so consumers can dispatch
// before decoding the rest.
type jsonlCounter struct {
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type jsonlGauge struct {
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type jsonlHistogram struct {
	Kind   string  `json:"kind"`
	Name   string  `json:"name"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	P50    int64   `json:"p50"`
	P99    int64   `json:"p99"`
}

type jsonlSpan struct {
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Attrs []KV   `json:"attrs,omitempty"`
}

// WriteJSONL writes the snapshot as JSON lines: one object per counter,
// gauge, histogram, and span, in canonical snapshot order. The schema is
// validated by tools/metricsval.
func WriteJSONL(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)
	line := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		return bw.WriteByte('\n')
	}
	for _, c := range s.Counters {
		if err := line(jsonlCounter{Kind: "counter", Name: c.Name, Value: c.Value}); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := line(jsonlGauge{Kind: "gauge", Name: g.Name, Value: g.Value}); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		rec := jsonlHistogram{
			Kind: "histogram", Name: h.Name,
			Bounds: h.Bounds, Counts: h.Counts,
			Count: h.Count, Sum: h.Sum,
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		}
		if err := line(rec); err != nil {
			return err
		}
	}
	for _, sp := range s.Spans {
		if err := line(jsonlSpan{Kind: "span", Name: sp.Name, Start: sp.Start, End: sp.End, Attrs: sp.Attrs}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONLFile creates (or truncates) path and writes s to it as JSONL.
func WriteJSONLFile(path string, s Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSONL(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
