package obs

import (
	"math"
	"sort"
)

// CounterPoint is one counter in a Snapshot.
type CounterPoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugePoint is one gauge in a Snapshot.
type GaugePoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramPoint is one histogram in a Snapshot. Counts has
// len(Bounds)+1 entries; the last counts observations above the largest
// bound.
type HistogramPoint struct {
	Name   string  `json:"name"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Quantile estimates the q-quantile (0..1) as the upper bound of the
// bucket containing the ceil(q·Count)-th observation. No observation is
// stored or sorted; the estimate's resolution is the bucket width. The
// overflow bucket reports the largest bound (the estimate saturates).
func (h HistogramPoint) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// ceil(q·Count), forgiving the product's last-bit error: 0.07·100 is
	// 7.000000000000001 in float64, and the rank it means is 7.
	x := float64(q * float64(h.Count))
	rank := int64(math.Ceil(x - float64(x*1e-12)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Bounds[len(h.Bounds)-1]
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is the point-in-time export of a registry: every slice sorted
// into a canonical order (points by name, spans by start/end/name/attrs)
// so identical registry contents produce identical snapshots. It is the
// one schema the per-package stats structs (core.Stats, transport.Stats,
// netsim.PortStats, netsim.FaultStats) export through.
type Snapshot struct {
	Counters   []CounterPoint
	Gauges     []GaugePoint
	Histograms []HistogramPoint
	Spans      []SpanPoint
}

// Snapshot captures the registry's current state — instruments plus
// whatever the registered sources report — in canonical order. The nil
// registry yields the empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	//trimlint:allow determinism keys are sorted below; map order never reaches the snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: c.Value()})
	}
	//trimlint:allow determinism keys are sorted below; map order never reaches the snapshot
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: g.Value()})
	}
	for _, src := range r.sources {
		src(Emit{&s})
	}
	s.Counters = canonCounters(s.Counters)
	s.Gauges = canonGauges(s.Gauges)
	//trimlint:allow determinism keys are sorted two lines down; map order never reaches the snapshot
	for _, h := range r.hists {
		s.Histograms = append(s.Histograms, h.point())
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	s.Spans = append(s.Spans, r.spans...)
	sortSpans(s.Spans)
	return s
}

// canonCounters puts points in canonical order: sorted by name, those
// sharing a name summed into one. It is both how a snapshot absorbs
// sources in any registration order and how Merge combines two snapshots.
func canonCounters(pts []CounterPoint) []CounterPoint {
	sort.Slice(pts, func(i, j int) bool { return pts[i].Name < pts[j].Name })
	out := pts[:0]
	for _, p := range pts {
		if n := len(out); n > 0 && out[n-1].Name == p.Name {
			out[n-1].Value += p.Value
		} else {
			out = append(out, p)
		}
	}
	return out
}

// canonGauges is canonCounters for gauges: a shared name keeps the
// maximum, the order-independent choice for an instantaneous value.
func canonGauges(pts []GaugePoint) []GaugePoint {
	sort.Slice(pts, func(i, j int) bool { return pts[i].Name < pts[j].Name })
	out := pts[:0]
	for _, p := range pts {
		if n := len(out); n == 0 || out[n-1].Name != p.Name {
			out = append(out, p)
		} else if p.Value > out[n-1].Value {
			out[n-1].Value = p.Value
		}
	}
	return out
}

// spanLess is the canonical span order: start, end, name, then attributes.
func spanLess(a, b SpanPoint) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.End != b.End {
		return a.End < b.End
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return attrsLess(a.Attrs, b.Attrs)
}

func attrsLess(a, b []KV) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].K != b[i].K {
			return a[i].K < b[i].K
		}
		if a[i].V != b[i].V {
			return a[i].V < b[i].V
		}
	}
	return len(a) < len(b)
}

func spanEqual(a, b SpanPoint) bool { return !spanLess(a, b) && !spanLess(b, a) }

func sortSpans(sp []SpanPoint) {
	sort.Slice(sp, func(i, j int) bool { return spanLess(sp[i], sp[j]) })
}

// Counter returns the value of the named counter (0 if absent).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the value of the named gauge (0 if absent).
func (s Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the named histogram point and whether it exists.
func (s Snapshot) Histogram(name string) (HistogramPoint, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramPoint{}, false
}

// NonZero returns s without its zero-valued points: counters and gauges
// that read 0 and histograms that observed nothing. Spans are kept. A
// digest of the export then moves when some value does, not when an
// instrument that never counted anything is added or deleted.
func (s Snapshot) NonZero() Snapshot {
	out := Snapshot{Spans: s.Spans}
	for _, c := range s.Counters {
		if c.Value != 0 {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if g.Value != 0 {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if h.Count != 0 {
			out.Histograms = append(out.Histograms, h)
		}
	}
	return out
}

// SpanSum returns the total duration and count of spans with the given
// name whose attributes include every attr in the filter.
func (s Snapshot) SpanSum(name string, filter ...KV) (total int64, count int) {
	for _, sp := range s.Spans {
		if sp.Name != name {
			continue
		}
		ok := true
		for _, f := range filter {
			if v, has := sp.Attr(f.K); !has || v != f.V {
				ok = false
				break
			}
		}
		if ok {
			total += sp.Duration()
			count++
		}
	}
	return total, count
}

// Merge combines two snapshots. It is associative, commutative, and has
// the empty snapshot as identity, so per-worker or per-cell snapshots can
// be folded in any order:
//
//   - counters: summed (event counts compose additively);
//   - gauges: maximum (an instantaneous value has no meaningful sum; the
//     peak is the order-independent choice);
//   - histograms: bucket-wise sum — same name requires identical pinned
//     bounds (it panics otherwise, as Registry.Histogram does);
//   - spans: multiset union in canonical order.
func Merge(a, b Snapshot) Snapshot {
	var out Snapshot
	out.Counters = canonCounters(append(append([]CounterPoint(nil), a.Counters...), b.Counters...))
	out.Gauges = canonGauges(append(append([]GaugePoint(nil), a.Gauges...), b.Gauges...))
	out.Histograms = mergeHistograms(a.Histograms, b.Histograms)
	out.Spans = append(append([]SpanPoint(nil), a.Spans...), b.Spans...)
	sortSpans(out.Spans)
	return out
}

func mergeHistograms(a, b []HistogramPoint) []HistogramPoint {
	var out []HistogramPoint
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].Name < b[j].Name):
			out = append(out, copyHist(a[i]))
			i++
		case i >= len(a) || b[j].Name < a[i].Name:
			out = append(out, copyHist(b[j]))
			j++
		default:
			if !boundsEqual(a[i].Bounds, b[j].Bounds) {
				panic("obs: merge of histogram " + a[i].Name + " with different bucket bounds")
			}
			m := copyHist(a[i])
			for k := range m.Counts {
				m.Counts[k] += b[j].Counts[k]
			}
			m.Count += b[j].Count
			m.Sum += b[j].Sum
			out = append(out, m)
			i++
			j++
		}
	}
	return out
}

func copyHist(h HistogramPoint) HistogramPoint {
	h.Bounds = append([]int64(nil), h.Bounds...)
	h.Counts = append([]int64(nil), h.Counts...)
	return h
}

// Diff returns the change from prev to cur, both taken from the same
// registry (prev earlier): counters and histogram buckets subtract,
// gauges report cur's value, and spans are the multiset difference
// (spans recorded after prev). Instruments absent from cur are dropped.
func Diff(prev, cur Snapshot) Snapshot {
	var out Snapshot
	for _, c := range cur.Counters {
		out.Counters = append(out.Counters, CounterPoint{Name: c.Name, Value: c.Value - prev.Counter(c.Name)})
	}
	out.Gauges = append(out.Gauges, cur.Gauges...)
	for _, h := range cur.Histograms {
		d := copyHist(h)
		if p, ok := prev.Histogram(h.Name); ok {
			if !boundsEqual(p.Bounds, h.Bounds) {
				panic("obs: diff of histogram " + h.Name + " with different bucket bounds")
			}
			for k := range d.Counts {
				d.Counts[k] -= p.Counts[k]
			}
			d.Count -= p.Count
			d.Sum -= p.Sum
		}
		out.Histograms = append(out.Histograms, d)
	}
	// Both span slices are in canonical order; advance through prev once.
	i := 0
	for _, sp := range cur.Spans {
		for i < len(prev.Spans) && spanLess(prev.Spans[i], sp) {
			i++
		}
		if i < len(prev.Spans) && spanEqual(prev.Spans[i], sp) {
			i++
			continue
		}
		out.Spans = append(out.Spans, sp)
	}
	return out
}
