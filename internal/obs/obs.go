// Package obs is trimgrad's unified observability layer: a stdlib-only,
// deterministic metrics and tracing registry that every instrumented
// package (netsim, transport, core, collective, ddp) reports into.
//
// Three properties drive the design:
//
//   - Determinism. Telemetry is part of the experiment output: two
//     same-seed runs must emit bit-identical exports. The registry has no
//     clock: every span is stamped by its caller (RecordSpan) in simulated
//     time or a modeled clock, never the wall clock (enforced by
//     trimlint's determinism checker). Snapshots are sorted, histograms use
//     fixed pinned buckets, and quantiles are computed from bucket counts
//     without sorting observations.
//
//   - Injectability. Instrumentation is opt-in: a registry attached to a
//     simulator (netsim.WithRegistry) reaches every layer built on it, and
//     a codec or trainer takes one directly (core.WithRegistry,
//     ddp.WithRegistry). A nil *Registry (obs.Nop) is a valid registry
//     whose instruments are all no-ops, so hot paths pay one nil check
//     when telemetry is off.
//
//   - Mergeability. Snapshot values compose: Merge is associative and
//     order-independent (counters sum, gauges max, histograms add
//     bucket-wise, spans union), so per-worker or per-cell registries can
//     be combined into one fleet view in any order.
//
// Instruments are get-or-create by name and safe for concurrent use
// (counters, gauges, and histograms are atomic; the span log is
// mutex-guarded). A component that already counts its events in a typed
// stats struct does not mirror them into instruments: it registers a
// source (AddSource) that reports the struct's fields when Snapshot runs,
// so the struct stays the only hot-path write. The naming schema shared by
// every instrumented package is documented in DESIGN.md §9.
//
// Lookups by name (Counter, Gauge, Histogram) hash a string under a lock,
// so handles are resolved at construction, never per event: a simulator
// marks its registry while it runs (BeginRun), and Network.Audit fails if
// any lookup ran under the mark.
package obs

import (
	"sync"
	"sync/atomic"
)

// Registry owns a namespace of instruments plus a span log. The zero
// value is not useful; construct with New. A nil *Registry (Nop) is valid:
// every method no-ops and every instrument getter returns a nil instrument
// whose methods also no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sources  []func(Emit)
	spans    []SpanPoint
	// running counts the runs in progress, runLookups the lookups in one.
	running, runLookups atomic.Int32
}

// Nop is the disabled registry: instruments obtained from it are no-ops.
// Passing Nop (or just nil) to netsim.WithRegistry turns instrumentation
// off at the cost of one nil check per event.
var Nop *Registry

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Emit is handed to a source while Snapshot runs; each call reports one
// point under the source's own metric names.
type Emit struct{ s *Snapshot }

// Counter reports a monotone count.
func (e Emit) Counter(name string, v int) {
	e.s.Counters = append(e.s.Counters, CounterPoint{Name: name, Value: int64(v)})
}

// Gauge reports an instantaneous or high-water value.
func (e Emit) Gauge(name string, v int) {
	e.s.Gauges = append(e.s.Gauges, GaugePoint{Name: name, Value: int64(v)})
}

// AddSource registers fn to report a component's counts on every
// Snapshot. It is a construction-time call: the component keeps plain
// fields as its only write site and fn reads them on demand. Points that
// share a name — with each other or with an instrument — combine as under
// Merge (counters sum, gauges keep the maximum), so successive components
// reusing a name accumulate as they would on one get-or-create counter.
//
// fn reads the component's fields unsynchronized: Snapshot must not run
// concurrently with the component's writer. fn must not call back into
// the registry. The nil registry ignores the call.
func (r *Registry) AddSource(fn func(Emit)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sources = append(r.sources, fn)
	r.mu.Unlock()
}

// BeginRun marks r as used by a running simulator until the matching
// EndRun (overlapping runs nest). RunLookups counts the Counter, Gauge and
// Histogram calls under the mark; RecordSpan and AddSource are not lookups.
func (r *Registry) BeginRun() {
	if r != nil {
		r.running.Add(1)
	}
}

// EndRun clears the mark of one BeginRun.
func (r *Registry) EndRun() {
	if r != nil {
		r.running.Add(-1)
	}
}

// RunLookups returns how many lookups ran under a BeginRun mark.
func (r *Registry) RunLookups() int {
	if r == nil {
		return 0
	}
	return int(r.runLookups.Load())
}

// lockLookup takes r.mu for a lookup, counting it under the run mark.
func (r *Registry) lockLookup() {
	r.mu.Lock()
	if r.running.Load() > 0 {
		r.runLookups.Add(1)
	}
}

// Counter returns the named monotone counter, creating it on first use.
// Nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.lockLookup()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.lockLookup()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it with the
// given bucket upper bounds on first use. Bounds must be strictly
// increasing; a later call with different bounds for the same name panics
// (bucket boundaries are part of the export schema and must be pinned).
// Nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.lockLookup()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(name, bounds)
		r.hists[name] = h
	} else if !boundsEqual(h.bounds, bounds) {
		panic("obs: histogram " + name + " redeclared with different bucket bounds")
	}
	return h
}

// Counter is a monotone event counter. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer value (queue depth, window size).
// Fractional quantities are stored scaled (e.g. cwnd ×1000); the scale is
// part of the metric name. Methods are safe for concurrent use and no-ops
// on a nil receiver.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 on the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func boundsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
