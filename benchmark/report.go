package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

const (
	passEndToEnd = "end_to_end"
	passTraced   = "traced"
)

// metricDef declares a metric: name, unit, which way is better, and (for
// end-to-end metrics) the share of the baseline median by which it may
// worsen before a change counts as a regression. BENCHMARK.json repeats
// gatedDefs and perLayerDefs; bench_test.go checks the two stay equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// AA, where set, is the issue's tighter bound: the one -aa holds the
	// medians of two interleaved sets to (aaBound).
	AA float64 `json:"-"`
}

// aaBound is the bound two interleaved sets of the same code must agree
// within.
func (d metricDef) aaBound() float64 {
	if d.AA > 0 {
		return d.AA
	}
	return d.Bound
}

// gatedDefs are the end-to-end metrics every workload reports: the ones
// BENCHMARK.json lists under end_to_end and the accepting driver bounds.
// The three host-time ones are normalised by the box's slowdown (calib.go).
//
// They carry two bounds. The issue's 10 % is what -aa enforces: medians of
// ten from interleaved sets agree within 1.9 % (3.1 % for setup_s) even in
// slow spells of the reference box (noise_floor.json). BENCHMARK.json gets
// 25 %, because the driver it is written for compares sets taken one after
// the other, refuses a benchmark whose ten-seed spread within one set
// exceeds the metric's bound and wants that spread under a third of it:
// sequential tens of identical code spread 2-7 % normalised, single sets up
// to 10 % (README.md, "Noise floor"). alloc_mb_per_iter stands in for
// peak_rss_mb, which the issue's own rule (a metric that cannot hold its
// bound is demoted) keeps out.
var gatedDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.10},
	{"iter_ms_p50", "ms", "lower", 0.25, 0.10},
	{"grad_mb_per_s", "MB/s", "higher", 0.25, 0.10},
	{"alloc_mb_per_iter", "MB", "lower", 0.05, 0},
}

// outcomeDefs are the end-to-end metrics the accepting driver cannot
// bound. Its contract takes "every end_to_end metric" from every workload,
// "never 0", each with a spread across ten different seeds inside its
// bound — but these exist only for some workloads, or are zero on success
// (fail_share travels as failed/attempted), or are a maximum over a run
// that concurrent GC makes bimodal across processes (peak_rss_mb: medians
// of ten agree within 6 %, single runs of codec_exchange land at 58 or 75-85 MB).
// -aa bounds them here instead, on medians; the traced pass repeats them as
// e2e.<name> and runtime.peak_rss_mb. Simulated metrics repeat exactly for
// a seed: their 1 % bound only keeps a documented re-golden visible rather
// than fatal.
var outcomeDefs = []metricDef{
	{"peak_rss_mb", "MB", "lower", 0.10, 0},
	{"fail_share", "ratio", "lower", 0, 0},
	{"sim_ns_per_wall_ns", "ratio", "higher", 0.10, 0},
	{"sim_fct_p99_us", "us", "lower", 0.01, 0},
	{"sim_train_wall_s", "s", "lower", 0.01, 0},
	{"final_top1", "ratio", "higher", 0.01, 0},
	{"decode_nmse", "ratio", "lower", 0.01, 0},
}

// perLayerDefs are the traced pass's metrics, layer.metric. Every workload
// prints all of them; a layer a workload bypasses reads 0 there.
var perLayerDefs = []metricDef{
	{Name: "quant.encode_ns_per_coord.sign", Unit: "ns", Better: "lower"},
	{Name: "quant.encode_ns_per_coord.sq", Unit: "ns", Better: "lower"},
	{Name: "quant.encode_ns_per_coord.sd", Unit: "ns", Better: "lower"},
	{Name: "quant.encode_ns_per_coord.rht", Unit: "ns", Better: "lower"},
	{Name: "quant.decode_ns_per_coord.sign", Unit: "ns", Better: "lower"},
	{Name: "quant.decode_ns_per_coord.sq", Unit: "ns", Better: "lower"},
	{Name: "quant.decode_ns_per_coord.sd", Unit: "ns", Better: "lower"},
	{Name: "quant.decode_ns_per_coord.rht", Unit: "ns", Better: "lower"},
	{Name: "fwht.rotate_ns_per_coord", Unit: "ns", Better: "lower"},
	{Name: "wire.pack_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "wire.parse_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "wire.trim_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "core.encode_s", Unit: "s", Better: "lower"},
	{Name: "core.decode_s", Unit: "s", Better: "lower"},
	{Name: "core.self_share", Unit: "ratio", Better: "lower"},
	{Name: "core.rejected_pkts", Unit: "count", Better: "lower"},
	{Name: "core.trimmed_coord_share", Unit: "ratio", Better: "lower"},
	{Name: "par.codec_speedup", Unit: "ratio", Better: "higher"},
	{Name: "netsim.build_s", Unit: "s", Better: "lower"},
	{Name: "netsim.run_s", Unit: "s", Better: "lower"},
	{Name: "netsim.run_self_s", Unit: "s", Better: "lower"},
	{Name: "netsim.events", Unit: "count", Better: "lower"},
	{Name: "netsim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "netsim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "netsim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "netsim.enqueued", Unit: "count", Better: "lower"},
	{Name: "netsim.trimmed", Unit: "count", Better: "lower"},
	{Name: "netsim.dropped", Unit: "count", Better: "lower"},
	{Name: "netsim.trim_share", Unit: "ratio", Better: "lower"},
	{Name: "netsim.drop_share", Unit: "ratio", Better: "lower"},
	{Name: "netsim.shard_speedup", Unit: "ratio", Better: "higher"},
	{Name: "transport.inject_s", Unit: "s", Better: "lower"},
	{Name: "transport.rx_self_s", Unit: "s", Better: "lower"},
	{Name: "transport.data_sent", Unit: "count", Better: "lower"},
	{Name: "transport.retransmits", Unit: "count", Better: "lower"},
	{Name: "transport.timeouts", Unit: "count", Better: "lower"},
	{Name: "transport.nacks", Unit: "count", Better: "lower"},
	{Name: "transport.trimmed_rx", Unit: "count", Better: "lower"},
	{Name: "transport.retx_ratio", Unit: "ratio", Better: "lower"},
	{Name: "collective.launch_s", Unit: "s", Better: "lower"},
	{Name: "collective.rx_self_s", Unit: "s", Better: "lower"},
	{Name: "collective.msgs", Unit: "count", Better: "lower"},
	{Name: "ml.fwdbwd_s", Unit: "s", Better: "lower"},
	{Name: "ml.step_s", Unit: "s", Better: "lower"},
	{Name: "ml.eval_s", Unit: "s", Better: "lower"},
	{Name: "ddp.orchestration_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.iter_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "e2e.sim_ns_per_wall_ns", Unit: "ratio", Better: "higher"},
	{Name: "e2e.sim_fct_p99_us", Unit: "us", Better: "lower"},
	{Name: "e2e.sim_train_wall_s", Unit: "s", Better: "lower"},
	{Name: "e2e.final_top1", Unit: "ratio", Better: "higher"},
	{Name: "e2e.decode_nmse", Unit: "ratio", Better: "lower"},
}

// metricValue is one measured metric. Samples, Q1 and Q3 are set when the
// value summarises that many samples.
type metricValue struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples,omitempty"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// report is everything one pass over one workload measured.
type report struct {
	Workload   string        `json:"workload"`
	Seed       uint64        `json:"seed"`
	Pass       string        `json:"pass"`
	Seconds    float64       `json:"seconds"`
	Iterations int           `json:"iterations"`
	Attempted  int           `json:"attempted"`
	Failed     int           `json:"failed"`
	Failures   []string      `json:"failures,omitempty"`
	Digest     string        `json:"digest"`
	EndToEnd   []metricValue `json:"end_to_end,omitempty"`
	PerLayer   []metricValue `json:"per_layer,omitempty"`
	Info       []metricValue `json:"info,omitempty"`
	Shares     []shareRow    `json:"shares,omitempty"`
	TraceFile  string        `json:"trace_file,omitempty"`
	// IterMs are the raw host times of the end-to-end pass's iterations and
	// Slowdown the calibrations taken between them (one more than IterMs).
	IterMs   []float64 `json:"iter_ms,omitempty"`
	Slowdown []float64 `json:"slowdown,omitempty"`
}

// document is the -json file: the machine, the seed, every report and,
// for -runs and -aa, the medians, spreads and A/A verdicts over them.
type document struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Seed        uint64       `json:"seed"`
	Reports     []*report    `json:"reports"`
	Summary     []summaryRow `json:"summary,omitempty"`
}

func (r *report) metric(name string) (metricValue, bool) {
	for _, set := range [][]metricValue{r.EndToEnd, r.PerLayer, r.Info} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricValue{}, false
}

// printHuman writes the table a person reads.
func (r *report) printHuman(w io.Writer) {
	fmt.Fprintf(w, "== %s  pass=%s seed=%d iterations=%d\n", r.Workload, r.Pass, r.Seed, r.Iterations)
	for _, set := range [][]metricValue{r.EndToEnd, r.Info, r.PerLayer} {
		for _, m := range set {
			line := fmt.Sprintf("  %-34s %14.6g %-6s", m.Name, m.Value, m.Unit)
			if m.Samples > 0 {
				line += fmt.Sprintf(" n=%d", m.Samples)
			}
			if m.Q1 != 0 || m.Q3 != 0 {
				line += fmt.Sprintf(" q1=%.6g q3=%.6g", m.Q1, m.Q3)
			}
			if m.Note != "" {
				line += "  " + strings.TrimSpace(m.Note)
			}
			fmt.Fprintln(w, line)
		}
	}
	if len(r.Shares) > 0 {
		fmt.Fprintf(w, "  per-layer share of the traced iteration (self time; shares sum to 1):\n")
		fmt.Fprintf(w, "    %-22s %-11s %12s %8s %10s\n", "span", "layer", "self ms/iter", "share", "calls")
		var total float64
		for _, s := range r.Shares {
			fmt.Fprintf(w, "    %-22s %-11s %12.3f %7.1f%% %10d\n", s.Name, s.Layer, s.SelfMs, 100*s.Share, s.Calls)
			total += s.Share
		}
		fmt.Fprintf(w, "    %-22s %-11s %12s %7.1f%%\n", "total", "", "", 100*total)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.TraceFile)
	}
	fmt.Fprintf(w, "  digest %s  checks: attempted=%d failed=%d\n", r.Digest, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// resultLine is the one JSON object the accepting driver reads from the
// last line of standard output: the gated end-to-end metrics from the
// untraced pass, every per-layer metric from the traced one.
func (r *report) resultLine() string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	defs := gatedDefs
	if r.Pass == passTraced {
		defs = perLayerDefs
	}
	for _, d := range defs {
		m, _ := r.metric(d.Name)
		metrics[d.Name] = val{m.Value, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // only NaN/Inf can fail here, and every division is guarded
	}
	return string(line)
}

func writeDocument(path string, doc document) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readDocument(path string) (document, error) {
	var doc document
	buf, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	return doc, json.Unmarshal(buf, &doc)
}
