package main

import (
	"fmt"
	"maps"
	"runtime"
	"sort"
	"time"
)

// limits sizes one pass. The benchmark proper passes -seconds and the
// constants in main.go; bench_test.go's smoke test shrinks all of them.
type limits struct {
	seconds   float64 // scales every iteration count (iterations in main.go)
	setupReps int     // least setup runs; setup_s is the median of all
	warmups   int     // discarded iterations before measuring
	outDir    string  // where trace files go
}

// maxSetupReps caps how often a cheap set-up is repeated.
const maxSetupReps = 64

// warmupBase offsets warm-up iteration numbers so they draw inputs no
// measured iteration uses.
const warmupBase = 1 << 32

// measure runs iterations [0, n): the closed loop, one client. The count is
// the only stopping rule, so every run of a seed measures the same inputs.
func measure(w workload, tr *tracer, n int) []iterOut {
	outs := make([]iterOut, 0, n)
	for i := 0; i < n; i++ {
		outs = append(outs, w.iterate(i, tr))
	}
	return outs
}

// measureCalibrated is measure for the end-to-end pass: it also reads the
// box's slowdown (calibrate) before the first iteration and after every one.
func measureCalibrated(w workload, n int) (outs []iterOut, slow []float64) {
	outs = make([]iterOut, 0, n)
	slow = append(make([]float64, 0, n+1), calibrate())
	for i := 0; i < n; i++ {
		outs = append(outs, w.iterate(i, nil))
		slow = append(slow, calibrate())
	}
	return outs, slow
}

func hostMs(outs []iterOut) []float64 {
	ms := make([]float64, len(outs))
	for i := range outs {
		ms[i] = float64(outs[i].hostNs) / 1e6
	}
	return ms
}

// tally sums attempted and failed operations over outs.
func tally(r *report, outs []iterOut) {
	for i := range outs {
		r.Attempted += outs[i].attempted
		r.Failed += outs[i].failed
		r.Failures = append(r.Failures, outs[i].failures...)
	}
}

// check records one pass/fail check (a digest comparison, a conservation
// identity) as an attempted operation.
func (r *report) check(fails []string) {
	r.Attempted++
	if len(fails) > 0 {
		r.Failed++
		r.Failures = append(r.Failures, fails...)
	}
}

// runEndToEnd is the untraced pass: set-up (timed, repeated), warm-up,
// the measured closed loop, then the repeat-digest checks.
func runEndToEnd(s spec, cfg config, seed uint64, lim limits) (*report, error) {
	w := s.build(cfg, seed)
	r := &report{Workload: s.name, Seed: seed, Pass: passEndToEnd, Seconds: lim.seconds}

	// Set up at least setupReps times, and for cheap set-ups until a second
	// has gone by (never longer than the measured phase itself), so the
	// median of a 3 ms dataset build is as steady as that of a 0.4 s
	// pre-encode. Every repeat builds the same inputs from the seed.
	// Like the iterations, the set-ups have calibrations between them.
	budget := time.Duration(min(lim.seconds, 1) * float64(time.Second))
	var setups []float64
	setupSlow := []float64{calibrate()}
	for start := time.Now(); len(setups) < lim.setupReps || (time.Since(start) < budget && len(setups) < maxSetupReps); {
		t := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", s.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		setupSlow = append(setupSlow, calibrate())
	}
	for k := 0; k < lim.warmups; k++ {
		w.iterate(warmupBase+k, nil)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	outs, slow := measureCalibrated(w, iterations(s.iters, lim.seconds))
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB() // before the checks below re-run iterations
	tally(r, outs)
	for i := 0; i < s.verify && i < len(outs); i++ {
		r.check(w.verify(i, outs[i]))
	}
	r.Iterations = len(outs)
	r.Digest = foldDigests(outs)

	// Host times from here on are normalised: divided by the mean slowdown
	// of the box over the loop they were measured in (calib.go). The raw ones
	// stay in the report.
	r.IterMs, r.Slowdown = hostMs(outs), slow
	ms := scaled(r.IterMs, 1/mean(slow))
	var bytes int64
	for i := range outs {
		bytes += outs[i].gradBytes
	}
	q1, p50, q3 := quartiles(ms)
	tail, pct := tailPercentile(ms)
	r.EndToEnd = []metricValue{
		{Name: "setup_s", Unit: "s", Value: median(setups) / mean(setupSlow), Samples: len(setups)},
		{Name: "iter_ms_p50", Unit: "ms", Value: p50, Samples: len(ms), Q1: q1, Q3: q3},
		{Name: "grad_mb_per_s", Unit: "MB/s", Value: float64(bytes) / float64(len(outs)) / 1e6 / (p50 / 1e3)},
		{Name: "alloc_mb_per_iter", Unit: "MB", Value: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(len(outs))},
		{Name: "peak_rss_mb", Unit: "MB", Value: rss},
		{Name: "fail_share", Unit: "ratio", Value: float64(r.Failed) / float64(max(r.Attempted, 1))},
	}
	r.EndToEnd = append(r.EndToEnd, outcomeMetrics(outs, mean(slow))...)
	r.Info = []metricValue{
		{Name: "driver.iter_ms_tail", Unit: "ms", Value: tail},
		{Name: "driver.tail_pct", Unit: "%", Value: pct},
		{Name: "driver.samples", Unit: "count", Value: float64(len(ms))},
		{Name: "driver.slowdown", Unit: "ratio", Value: mean(slow), Samples: len(slow)},
		{Name: "driver.raw_iter_ms_p50", Unit: "ms", Value: median(r.IterMs)},
		{Name: "driver.raw_setup_s", Unit: "s", Value: median(setups)},
	}
	return r, nil
}

// outcomeMetrics folds the simulated and quality outcomes of outs into the
// end-to-end metrics that exist for this workload: fabric workloads have
// flow completion times and a simulation rate, training has simulated
// wall time and accuracy, the codec has decode error. A metric that does
// not apply is omitted. Host time inside RunUntil is normalised by slowdown,
// the box's mean slowdown over the iterations.
func outcomeMetrics(outs []iterOut, slowdown float64) []metricValue {
	var m []metricValue
	var fcts []int64
	var simNs, runNs int64
	var walls, top1s, nmses []float64
	byScheme := map[string][]float64{}
	for i := range outs {
		o := &outs[i]
		fcts = append(fcts, o.fcts...)
		if len(o.fcts) > 0 {
			simNs += o.simNs
			runNs += o.runNs
		}
		if o.simWallS > 0 {
			walls = append(walls, o.simWallS)
			top1s = append(top1s, o.top1)
		}
		for scheme, v := range o.nmse {
			nmses = append(nmses, v)
			byScheme[scheme] = append(byScheme[scheme], v)
		}
	}
	if len(fcts) > 0 {
		m = append(m,
			metricValue{Name: "sim_ns_per_wall_ns", Unit: "ratio", Value: float64(simNs) / (float64(runNs) / slowdown)},
			metricValue{Name: "sim_fct_p99_us", Unit: "us", Value: float64(percentileNearest(fcts, 0.99)) / 1e3, Samples: len(fcts)})
	}
	if len(walls) > 0 {
		q1, _, q3 := quartiles(top1s)
		m = append(m,
			metricValue{Name: "sim_train_wall_s", Unit: "s", Value: mean(walls), Samples: len(walls)},
			metricValue{Name: "final_top1", Unit: "ratio", Value: mean(top1s), Samples: len(top1s), Q1: q1, Q3: q3})
	}
	if len(nmses) > 0 {
		note := ""
		for _, name := range keys(byScheme) {
			note += fmt.Sprintf("%s=%.4f ", name, mean(byScheme[name]))
		}
		m = append(m, metricValue{Name: "decode_nmse", Unit: "ratio", Value: mean(nmses), Samples: len(nmses), Note: note})
	}
	return m
}

// runTraced is the per-layer pass, separate from and shorter than the
// end-to-end one. It runs the same leading quarter of the iterations three
// times — untraced, traced, and the workload's extra arm (other shard
// count, or the untraced unrolled loop) — then times the codec layers on
// the workload's rows. Tracing must not move simulated outcomes: the traced
// digests are checked against the untraced ones.
func runTraced(s spec, cfg config, seed uint64, lim limits, handicap map[string]float64) (*report, error) {
	w := s.build(cfg, seed)
	r := &report{Workload: s.name, Seed: seed, Pass: passTraced, Seconds: lim.seconds}
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", s.name, err)
	}
	for k := 0; k < lim.warmups; k++ {
		w.iterate(warmupBase+k, nil)
	}
	n := max(1, iterations(s.iters, lim.seconds)/4)
	layers := map[string]float64{}

	// Untraced arm: the base of the overhead ratio.
	base := measure(w, nil, n)
	tally(r, base)

	// Traced arm: the same iterations with spans and wrappers on.
	tr := newTracer(handicap)
	traced := measure(w, tr, n)
	tally(r, traced)
	var fails []string
	for i := range traced {
		if traced[i].digest != base[i].digest {
			fails = append(fails, fmt.Sprintf("iteration %d: traced digest %s differs from untraced %s", i, shortDigest(traced[i].digest), shortDigest(base[i].digest)))
		}
	}
	r.check(fails)
	own, fails := w.layers(tr.spans, n)
	r.check(fails)
	maps.Copy(layers, own)

	extra, baseMs, fails := w.extraArm(n, base)
	r.check(fails)
	maps.Copy(layers, extra)
	if baseMs == 0 {
		baseMs = median(hostMs(base))
	}

	codec, fails := measureCodecLayers(w.codecSample(), seed, lim.seconds)
	r.check(fails)
	maps.Copy(layers, codec)

	tracedMs := median(hostMs(traced))
	layers["trace.overhead_ratio"] = tracedMs / baseMs
	layers["trace.iter_ms_p50"] = tracedMs
	layers["runtime.gc_cpu_share"] = gcCPUShare()
	layers["runtime.peak_rss_mb"] = peakRSSMB()
	for _, o := range outcomeMetrics(base, 1) { // the traced pass takes no calibrations
		layers["e2e."+o.Name] = o.Value
	}

	r.Iterations = n
	r.Digest = foldDigests(base)
	for _, d := range perLayerDefs {
		r.PerLayer = append(r.PerLayer, metricValue{Name: d.Name, Unit: d.Unit, Value: layers[d.Name]})
		delete(layers, d.Name)
	}
	if len(layers) > 0 {
		return nil, fmt.Errorf("%s: layer metrics %v are measured but not declared in perLayerDefs", s.name, keys(layers))
	}
	r.Shares = shareTable(tr.spans)
	path, err := writeTrace(lim.outDir, s.name, seed, tr.spans)
	if err != nil {
		return nil, fmt.Errorf("%s: writing trace: %w", s.name, err)
	}
	r.TraceFile = path
	return r, nil
}

func gcCPUShare() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.GCCPUFraction
}

// keys returns m's keys in sorted order.
func keys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
