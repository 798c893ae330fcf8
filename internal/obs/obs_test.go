package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a.events_total")
	c.Add(1)
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.events_total") != c {
		t.Fatal("get-or-create returned a different counter")
	}
	g := r.Gauge("a.depth")
	g.Set(7)
	g.Set(-2)
	if got := g.Value(); got != -2 {
		t.Fatalf("gauge = %d, want -2", got)
	}
}

// TestRunLookups pins the run mark: lookups count while any run is in
// progress, nested runs keep the mark until the outer one ends, and
// spans and sources never count.
func TestRunLookups(t *testing.T) {
	r := New()
	r.Counter("a.events_total")
	r.BeginRun()
	r.BeginRun()
	r.Gauge("a.depth")
	r.EndRun()
	r.Histogram("a.bytes", BucketsBytes())
	r.RecordSpan("a.span", 0, 1)
	r.AddSource(func(Emit) {})
	r.EndRun()
	r.Counter("a.events_total")
	if got := r.RunLookups(); got != 2 {
		t.Fatalf("RunLookups() = %d, want 2", got)
	}
	Nop.BeginRun()
	Nop.EndRun()
	if got := Nop.RunLookups(); got != 0 {
		t.Fatalf("Nop.RunLookups() = %d, want 0", got)
	}
}

func TestNopRegistryIsSafe(t *testing.T) {
	var r *Registry
	if r != Nop {
		t.Fatal("nil registry should equal Nop")
	}
	r.Counter("x").Add(1)
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter = %d, want 0", got)
	}
	r.Gauge("x").Set(3)
	if got := r.Gauge("x").Value(); got != 0 {
		t.Fatalf("nil gauge = %d, want 0", got)
	}
	r.Histogram("x", BucketsBytes()).Observe(10)
	r.RecordSpan("x", 0, 5)
	r.AddSource(func(e Emit) { e.Counter("x", 1) })
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Spans) != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("q.bytes", []int64{10, 20, 40})
	for _, v := range []int64{1, 10, 11, 20, 39, 100} {
		h.Observe(v)
	}
	p, ok := r.Snapshot().Histogram("q.bytes")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if p.Count != 6 || p.Sum != 181 {
		t.Fatalf("count=%d sum=%d, want 6/181", p.Count, p.Sum)
	}
	if want := []int64{2, 2, 1, 1}; !reflect.DeepEqual(p.Counts, want) {
		t.Fatalf("counts = %v, want %v", p.Counts, want)
	}
	// 3rd of 6 observations sits in the (10,20] bucket.
	if got := p.Quantile(0.5); got != 20 {
		t.Fatalf("p50 = %d, want 20", got)
	}
	// The top observation overflows; the estimate saturates at the last bound.
	if got := p.Quantile(0.99); got != 40 {
		t.Fatalf("p99 = %d, want 40", got)
	}
	if got := (HistogramPoint{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
	// The rank is ceil(q·Count): the median of {1, 15, 30} is the 2nd
	// observation, in (10,20], not the 1st.
	odd := HistogramPoint{Bounds: []int64{10, 20, 40}, Counts: []int64{1, 1, 1, 0}, Count: 3}
	if got := odd.Quantile(0.5); got != 20 {
		t.Fatalf("p50 of {1,15,30} = %d, want 20", got)
	}
	// One observation per bucket 1..100: the q-quantile is the ceil(100q)-th
	// bound, whichever way the product rounds (0.29·100 rounds down to
	// 28.999999999999996, 0.07·100 up to 7.000000000000001).
	hundred := HistogramPoint{Count: 100}
	for v := int64(1); v <= 100; v++ {
		hundred.Bounds = append(hundred.Bounds, v)
		hundred.Counts = append(hundred.Counts, 1)
	}
	hundred.Counts = append(hundred.Counts, 0)
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.29, 29}, {0.07, 7}, {0.5, 50}, {0.501, 51}, {1, 100}} {
		if got := hundred.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) over 1..100 = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestHistogramBoundsPinned(t *testing.T) {
	r := New()
	r.Histogram("h", []int64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring histogram with different bounds should panic")
		}
	}()
	r.Histogram("h", []int64{1, 3})
}

// TestBucketBoundariesGolden pins the standard bucket set: it is part
// of the export schema, so any change must be deliberate and show up here.
func TestBucketBoundariesGolden(t *testing.T) {
	wantBytes := []int64{
		64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
		65536, 131072, 262144, 524288, 1048576, 2097152, 4194304,
		8388608, 16777216,
	}
	if got := BucketsBytes(); !reflect.DeepEqual(got, wantBytes) {
		t.Fatalf("BucketsBytes = %v, want %v", got, wantBytes)
	}
}

func TestSnapshotCanonicalOrder(t *testing.T) {
	r := New()
	r.Counter("b").Add(1)
	r.Counter("a").Add(1)
	r.RecordSpan("late", 10, 20)
	r.RecordSpan("early", 0, 5)
	s := r.Snapshot()
	if s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Fatalf("counters unsorted: %+v", s.Counters)
	}
	if s.Spans[0].Name != "early" || s.Spans[1].Name != "late" {
		t.Fatalf("spans unsorted: %+v", s.Spans)
	}
}

func TestSpanSum(t *testing.T) {
	r := New()
	r.RecordSpan("op", 0, 10, KV{"rank", "0"})
	r.RecordSpan("op", 10, 30, KV{"rank", "1"})
	r.RecordSpan("other", 0, 100)
	s := r.Snapshot()
	if total, n := s.SpanSum("op"); total != 30 || n != 2 {
		t.Fatalf("SpanSum(op) = %d,%d want 30,2", total, n)
	}
	if total, n := s.SpanSum("op", KV{"rank", "1"}); total != 20 || n != 1 {
		t.Fatalf("SpanSum(op, rank=1) = %d,%d want 20,1", total, n)
	}
}

func TestNonZero(t *testing.T) {
	r := New()
	r.Counter("zero")
	r.Counter("one").Add(1)
	r.Gauge("idle")
	r.Gauge("depth").Set(-2)
	r.Histogram("empty", []int64{10})
	r.Histogram("seen", []int64{10}).Observe(0)
	r.RecordSpan("s", 0, 0)
	s := r.Snapshot().NonZero()
	if len(s.Counters) != 1 || s.Counter("one") != 1 || len(s.Gauges) != 1 || s.Gauge("depth") != -2 {
		t.Fatalf("NonZero kept counters %+v, gauges %+v", s.Counters, s.Gauges)
	}
	if _, ok := s.Histogram("seen"); !ok || len(s.Histograms) != 1 || len(s.Spans) != 1 {
		t.Fatalf("NonZero kept histograms %+v, spans %+v", s.Histograms, s.Spans)
	}
}

func TestDiff(t *testing.T) {
	r := New()
	r.Counter("c").Add(3)
	r.Histogram("h", []int64{10}).Observe(5)
	r.RecordSpan("s", 0, 1)
	prev := r.Snapshot()
	r.Counter("c").Add(4)
	r.Histogram("h", []int64{10}).Observe(50)
	r.RecordSpan("s", 2, 3)
	d := Diff(prev, r.Snapshot())
	if got := d.Counter("c"); got != 4 {
		t.Fatalf("diff counter = %d, want 4", got)
	}
	h, _ := d.Histogram("h")
	if h.Count != 1 || h.Sum != 50 || !reflect.DeepEqual(h.Counts, []int64{0, 1}) {
		t.Fatalf("diff hist = %+v", h)
	}
	if len(d.Spans) != 1 || d.Spans[0].Start != 2 {
		t.Fatalf("diff spans = %+v, want just [2,3]", d.Spans)
	}
}

func TestWriteJSONLGolden(t *testing.T) {
	r := New()
	r.Counter("a.total").Add(2)
	r.Gauge("g").Set(-1)
	r.Histogram("h", []int64{10, 20}).Observe(15)
	r.RecordSpan("op", 5, 9, KV{"rank", "0"})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`{"kind":"counter","name":"a.total","value":2}`,
		`{"kind":"gauge","name":"g","value":-1}`,
		`{"kind":"histogram","name":"h","bounds":[10,20],"counts":[0,1,0],"count":1,"sum":15,"p50":20,"p99":20}`,
		`{"kind":"span","name":"op","start":5,"end":9,"attrs":[{"k":"rank","v":"0"}]}`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("JSONL:\n%s\nwant:\n%s", got, want)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := New()
	c := r.Counter("c")
	h := r.Histogram("h", BucketsBytes())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
				h.Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	p, _ := r.Snapshot().Histogram("h")
	if c.Value() != 8000 || p.Count != 8000 {
		t.Fatalf("counter=%d hist=%d, want 8000 each", c.Value(), p.Count)
	}
}
