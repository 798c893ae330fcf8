package obs

import (
	"reflect"
	"testing"
)

// stats is the shape of a component that counts in plain fields and lets
// the registry read them on demand.
type stats struct{ sent, peak int }

func (s *stats) emit(e Emit) {
	e.Counter("b.sent_total", s.sent)
	e.Gauge("b.peak", s.peak)
}

func TestSourceOnNopRegistry(t *testing.T) {
	var r *Registry
	r.AddSource(func(Emit) { t.Fatal("a source on the nil registry must never run") })
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
}

func TestSourcePointsSortWithInstruments(t *testing.T) {
	r := New()
	r.Counter("c.events_total").Add(3)
	r.Gauge("a.depth").Set(2)
	st := &stats{}
	r.AddSource(st.emit)
	r.Counter("a.events_total").Add(1)
	st.sent, st.peak = 7, 9 // written after registration: sources read at Snapshot

	s := r.Snapshot()
	wantC := []CounterPoint{{"a.events_total", 1}, {"b.sent_total", 7}, {"c.events_total", 3}}
	wantG := []GaugePoint{{"a.depth", 2}, {"b.peak", 9}}
	if !reflect.DeepEqual(s.Counters, wantC) || !reflect.DeepEqual(s.Gauges, wantG) {
		t.Fatalf("snapshot = %+v / %+v, want %+v / %+v", s.Counters, s.Gauges, wantC, wantG)
	}
	st.sent = 8
	if got := r.Snapshot().Counter("b.sent_total"); got != 8 {
		t.Fatalf("second snapshot read %d, want the live field value 8", got)
	}
}

// TestSourcesSharingANameFold: successive components that reuse a metric
// name (two topologies built into one registry, a replaced fault
// injector) accumulate like one get-or-create counter; gauges keep the
// peak. A component registered twice therefore doubles — which is what
// the exp parity test catches.
func TestSourcesSharingANameFold(t *testing.T) {
	r := New()
	r.Counter("b.sent_total").Add(100)
	a, b := &stats{sent: 2, peak: 5}, &stats{sent: 3, peak: 4}
	r.AddSource(a.emit)
	r.AddSource(b.emit)
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 105 {
		t.Fatalf("counters = %+v, want one point of 105", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 5 {
		t.Fatalf("gauges = %+v, want one point of 5", s.Gauges)
	}
}

func TestSourcePointsDiffAndMergeAsCounters(t *testing.T) {
	r := New()
	st := &stats{sent: 4, peak: 6}
	r.AddSource(st.emit)
	prev := r.Snapshot()
	st.sent, st.peak = 10, 3
	cur := r.Snapshot()

	d := Diff(prev, cur)
	if got := d.Counter("b.sent_total"); got != 6 {
		t.Errorf("Diff counter = %d, want 6", got)
	}
	if got := d.Gauge("b.peak"); got != 3 {
		t.Errorf("Diff gauge = %d, want cur's 3", got)
	}
	m := Merge(prev, cur)
	if got := m.Counter("b.sent_total"); got != 14 {
		t.Errorf("Merge counter = %d, want 14", got)
	}
	if got := m.Gauge("b.peak"); got != 6 {
		t.Errorf("Merge gauge = %d, want the max 6", got)
	}
}
