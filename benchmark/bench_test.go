package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"trimgrad/internal/obs"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: the rule must sort
		}
		return v
	}
	cases := []struct {
		n         int
		wantValue float64
		wantPct   float64
	}{
		{5, 3, 50},      // too few samples for any tail: the median
		{19, 10, 50},    // still fewer than ten beyond any percentile ≥ 50
		{20, 10, 50},    // exactly ten beyond the 50th
		{100, 90, 90},   // ten samples (91..100) beyond the 90th
		{1000, 990, 99}, // ten beyond the 99th
	}
	for _, c := range cases {
		value, pct := tailPercentile(seq(c.n))
		if value != c.wantValue || pct != c.wantPct {
			t.Errorf("n=%d: got value %v at p%v, want %v at p%v", c.n, value, pct, c.wantValue, c.wantPct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > value {
				beyond++
			}
		}
		if c.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(v, n=4)
// returns; the accepting driver computes its spreads with that function.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// The calibration kernel is the yardstick every host time is divided by: it
// must do the same work on the same data every call and stay out of the
// allocation counts of the loop it is called from.
func TestCalibrateIsFrozenWork(t *testing.T) {
	before := append([]float32(nil), calVec...)
	if s := calibrate(); s <= 0 {
		t.Fatalf("calibrate() = %v, want a positive slowdown", s)
	}
	sink := calSink
	for i, x := range calVec {
		if math.Abs(float64(x-before[i])) > 1e-3 {
			t.Fatalf("calVec[%d] = %v after one call, was %v: the kernel's data drifts", i, x, before[i])
		}
	}
	calibrate()
	if calSink != 2*sink {
		t.Errorf("two calls left calSink at %d, one at %d: the kernel's result is not the same every call", calSink, sink)
	}
	if allocs := testing.AllocsPerRun(5, func() { calibrate() }); allocs != 0 {
		t.Errorf("calibrate allocates %v times a call", allocs)
	}
}

func TestSelfTimeOnNestedTree(t *testing.T) {
	// iteration [0,100) ⊃ run [10,90) ⊃ {rx aggregate 30 ns ⊃ sink aggregate 5 ns}, plus build [0,10).
	spans := []span{
		{Name: "driver.iteration", Layer: "driver", Start: 0, End: 100, Parent: -1},
		{Name: "netsim.build", Layer: "netsim", Start: 0, End: 10, Parent: 0},
		{Name: "netsim.run", Layer: "netsim", Start: 10, End: 90, Parent: 0},
		{Name: "transport.rx", Layer: "transport", Start: 10, End: 40, Parent: 2, Count: 7},
		{Name: "driver.sink", Layer: "driver", Start: 10, End: 15, Parent: 3, Count: 6},
	}
	want := []int64{10, 10, 50, 25, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	var total float64
	for _, r := range shareTable(spans) {
		total += r.Share
		if r.Name == "transport.rx" && r.Calls != 7 {
			t.Errorf("transport.rx calls = %d, want the aggregate's 7", r.Calls)
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", total)
	}
}

func TestTracerNestsAndHandicaps(t *testing.T) {
	tr := newTracer(map[string]float64{"ml.fwdbwd": 0.5})
	root := tr.begin("driver.iteration")
	sp := tr.begin("ml.fwdbwd")
	spin(2 * time.Millisecond)
	tr.end(sp)
	agg := tr.aggregate("transport.rx", sp, int64(time.Hour), 3) // clipped to its parent
	tr.end(root)
	if tr.spans[sp].Parent != root || tr.spans[agg].Parent != sp {
		t.Fatalf("parents: %+v", tr.spans)
	}
	if d := tr.spans[sp].End - tr.spans[sp].Start; d < int64(3*time.Millisecond) {
		t.Errorf("handicapped span lasted %v, want ≥ 3ms (2ms + 50%%)", time.Duration(d))
	}
	if tr.spans[agg].End > tr.spans[sp].End {
		t.Errorf("aggregate not clipped to its parent")
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // the untraced pass: no-ops
}

func TestCounterSuffixSummingAndTierConservation(t *testing.T) {
	snap := obs.Snapshot{Counters: []obs.CounterPoint{
		{Name: "netsim.port.0->1000.enqueued_total", Value: 5},
		{Name: "netsim.port.0->1000.transmitted_total", Value: 5},
		{Name: "netsim.port.1000->0.enqueued_total", Value: 7},
		{Name: "netsim.port.1000->0.transmitted_total", Value: 6},
		{Name: "netsim.port.1000->0.trimmed_total", Value: 2},
		{Name: "netsim.port.1001->1000.enqueued_total", Value: 4},
		{Name: "netsim.port.1001->1000.transmitted_total", Value: 4},
		{Name: "transport.h0.retransmits_total", Value: 3},
		{Name: "transport.h12.retransmits_total", Value: 4},
		{Name: "transport.h12.data_sent_total", Value: 100},
		{Name: "core.decode.packets_total", Value: 9},
	}}
	if got := sumCounters(snap, "transport.h", ".retransmits_total"); got != 7 {
		t.Errorf("retransmits = %d, want 7", got)
	}
	if got := sumCounters(snap, "netsim.port.", ".enqueued_total"); got != 16 {
		t.Errorf("enqueued = %d, want 16", got)
	}
	tier := func(id int) string {
		switch {
		case id == 1000:
			return "edge"
		case id > 1000:
			return "agg"
		}
		return "host"
	}
	fails := checkTierConservation(snap, tier)
	if len(fails) != 1 || !strings.Contains(fails[0], "tier edge: transmitted 6 of 7") {
		t.Errorf("conservation failures = %q, want exactly the edge tier", fails)
	}
}

func TestDigestStability(t *testing.T) {
	build := func(fct uint64, g []float32) iterOut {
		var d digestBuilder
		d.u64(fct)
		d.f32s(g)
		return iterOut{digest: d.sum()}
	}
	a := build(42, []float32{1, 2, 3})
	if again := build(42, []float32{1, 2, 3}); again.digest != a.digest {
		t.Error("same outcome, different digest")
	}
	if other := build(42, []float32{1, 2, float32(math.Nextafter32(3, 4))}); other.digest == a.digest {
		t.Error("one ulp of difference left the digest unchanged")
	}
	b := build(43, []float32{1, 2, 3})
	if foldDigests([]iterOut{a, b}) == foldDigests([]iterOut{b, a}) {
		t.Error("folded digest ignores iteration order")
	}
	if foldDigests([]iterOut{a, b}) != foldDigests([]iterOut{a, b}) {
		t.Error("folded digest not repeatable")
	}
}

// BENCHMARK.json is what the accepting driver reads; the tables in
// report.go and main.go are what the program prints. They must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d != refSeconds %d", doc.RunSeconds, refSeconds)
	}
	for _, s := range workloads {
		if got := iterations(s.iters, float64(doc.RunSeconds)); got != s.iters {
			t.Errorf("%s: %d iterations at run_seconds, the table says %d", s.name, got, s.iters)
		}
		if got := iterations(s.iters, float64(doc.RunSeconds)/2); got != s.iters/2 {
			t.Errorf("%s: %d iterations at half run_seconds, want %d", s.name, got, s.iters/2)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the table %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i := range want {
			want[i].AA = 0 // the -aa bound is not BENCHMARK.json's business
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, table %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, append([]metricDef(nil), gatedDefs...))
	same("per_layer", doc.PerLayer, perLayerDefs)
}

// noise_floor.json is the committed -aa evidence. Its verdicts stand only
// for the bounds it was produced with: a changed bound means a new A/A run,
// not a recomputed table.
func TestNoiseFloorUsesCommittedBounds(t *testing.T) {
	buf, err := os.ReadFile("noise_floor.json")
	if err != nil {
		t.Fatal(err)
	}
	var floor struct{ Rows []summaryRow }
	if err := json.Unmarshal(buf, &floor); err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, d := range append(append([]metricDef(nil), gatedDefs...), outcomeDefs...) {
		bounds[d.Name] = d.aaBound()
	}
	seen := map[string]bool{}
	for _, r := range floor.Rows {
		if r.Metric == digestRow {
			if !r.Agrees {
				t.Errorf("%s: digests differed between the two sets", r.Workload)
			}
			continue
		}
		seen[r.Metric] = true
		want, ok := bounds[r.Metric]
		if !ok || r.Bound != want {
			t.Errorf("%s %s: measured against bound %v, the committed -aa bound is %v", r.Workload, r.Metric, r.Bound, want)
		}
		if r.Agrees != agrees(metricDef{Bound: want}, r.MedianA, r.MedianB) {
			t.Errorf("%s %s: recorded verdict %v does not follow from its medians", r.Workload, r.Metric, r.Agrees)
		}
	}
	for name := range bounds {
		if !seen[name] {
			t.Errorf("noise_floor.json has no row for %s", name)
		}
	}
}

// TestSmokeEveryWorkload drives both passes of every workload at smoke
// scale (k=4 fabrics, one iteration). It runs under -short too: its job is
// to make `go test ./...` fail the day a constructor or counter name the
// benchmark relies on is deleted.
func TestSmokeEveryWorkload(t *testing.T) {
	lim := limits{seconds: 0.01, setupReps: 1, outDir: t.TempDir()} // every count scales down to 1
	for _, s := range workloads {
		e2e, err := runEndToEnd(s, smokeConfig, devSeed, lim)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runTraced(s, smokeConfig, devSeed, lim, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*report{e2e, traced} {
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s %s: %d of %d operations failed: %q", s.name, r.Pass, r.Failed, r.Attempted, r.Failures)
			}
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(r.resultLine()), &line); err != nil {
				t.Fatalf("%s %s: result line: %v", s.name, r.Pass, err)
			}
			want := gatedDefs
			if r.Pass == passTraced {
				want = perLayerDefs
			}
			if line.Correct == nil || !*line.Correct || len(line.Metrics) != len(want) {
				t.Errorf("%s %s: result line %s", s.name, r.Pass, r.resultLine())
			}
			for _, d := range want {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s %s: result line lacks %s in %s", s.name, r.Pass, d.Name, d.Unit)
				} else if r.Pass == passEndToEnd && *m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", s.name, d.Name, *m.Value)
				}
			}
		}
		if m, _ := traced.metric("trace.overhead_ratio"); m.Value <= 0 {
			t.Errorf("%s: trace.overhead_ratio = %v", s.name, m.Value)
		}
		var share float64
		for _, row := range traced.Shares {
			share += row.Share
		}
		if math.Abs(share-1) > 1e-9 {
			t.Errorf("%s: layer shares sum to %v", s.name, share)
		}
	}
}
