package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// A span is one timed interval at a layer boundary, recorded by the
// benchmark around a call into that layer's public functions. Times are
// host nanoseconds since the tracer started. Parent is the index of the
// enclosing span (-1 for an iteration root).
//
// Per-packet callbacks (host handlers, receivers) fire tens of thousands
// of times per iteration, some of them on shard goroutines, so they are
// not recorded one span each: a wrapper accumulates their time per host
// and the iteration emits one aggregate span per name, Count > 0 giving
// the number of calls folded into it, laid at the start of its parent.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iteration"`
	Count  int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced pass: every method is a no-op, so workloads call it
// unconditionally and the end-to-end pass pays one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	iter  int
	// handicap maps a span name to the share of each of its spans to
	// busy-wait on top (the -handicap self-test).
	handicap map[string]float64
}

func newTracer(handicap map[string]float64) *tracer {
	return &tracer{t0: time.Now(), handicap: handicap}
}

// layerOf derives the layer from a span name: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// setIter stamps the iteration number onto the spans that follow.
func (t *tracer) setIter(i int) {
	if t != nil {
		t.iter = i
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layerOf(name), Start: t.now(), Parent: parent, Iter: t.iter})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one. A handicapped
// span busy-waits its configured share before the end is stamped, so the
// slowdown lands inside the layer it is charged to.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %d closed out of order", id))
	}
	s := &t.spans[id]
	end := t.now()
	if share := t.handicap[s.Name]; share > 0 {
		spin(time.Duration(float64(end-s.Start) * share))
		end = t.now()
	}
	s.End = end
	t.open = t.open[:len(t.open)-1]
}

// unwind closes every span still open down to and including id, for an
// iteration that bails out early.
func (t *tracer) unwind(id int) {
	if t == nil {
		return
	}
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.end(top)
		if top == id {
			return
		}
	}
}

// aggregate records count callback invocations totalling ns of host time
// as one child of parent and returns its id, so aggregates nest (a
// receiver runs inside a host handler). The interval is clipped to the parent: handlers
// that ran in parallel on several shards can sum to more than the wall
// time that contained them.
func (t *tracer) aggregate(name string, parent int, ns, count int64) int {
	if t == nil || count == 0 || parent < 0 {
		return -1
	}
	p := t.spans[parent]
	if ns > p.End-p.Start {
		ns = p.End - p.Start
	}
	t.spans = append(t.spans, span{Name: name, Layer: layerOf(name), Start: p.Start, End: p.Start + ns,
		Parent: parent, Iter: t.iter, Count: count})
	return len(t.spans) - 1
}

// spin busy-waits d of host time. A sleep would hand the core back and
// understate the cost; the handicap must burn the CPU the layer would.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover. Children of one parent never overlap (the benchmark is
// a single closed loop; aggregates are clipped), so the cover is a sum.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// shareRow is one line of the per-layer share table.
type shareRow struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	SelfMs float64 `json:"self_ms_per_iter"`
	Share  float64 `json:"share"`
	Calls  int64   `json:"calls"`
}

// shareTable folds spans into self time per span name, as milliseconds per
// iteration and as a share of the summed iteration (root) spans. Self
// times partition each root exactly, so the shares sum to 1.
func shareTable(spans []span) []shareRow {
	self := selfTimes(spans)
	byName := map[string]*shareRow{}
	var total int64
	iters := map[int]bool{}
	for i, s := range spans {
		if s.Parent < 0 {
			total += s.End - s.Start
			iters[s.Iter] = true
		}
		r := byName[s.Name]
		if r == nil {
			r = &shareRow{Name: s.Name, Layer: s.Layer}
			byName[s.Name] = r
		}
		r.SelfMs += float64(self[i])
		if s.Count > 0 {
			r.Calls += s.Count
		} else {
			r.Calls++
		}
	}
	rows := make([]shareRow, 0, len(byName))
	for _, r := range byName {
		if total > 0 {
			r.Share = r.SelfMs / float64(total)
		}
		r.SelfMs /= 1e6 * float64(max(len(iters), 1))
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Share > rows[j].Share {
			return true
		}
		if rows[i].Share < rows[j].Share {
			return false
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// spanSeconds sums the durations of every span with the given name, in
// seconds per iteration.
func spanSeconds(spans []span, iters int, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9 / float64(max(iters, 1))
}

// selfSeconds is spanSeconds for self time.
func selfSeconds(rows []shareRow, name string) float64 {
	for _, r := range rows {
		if r.Name == name {
			return r.SelfMs / 1e3
		}
	}
	return 0
}

// writeTrace dumps the spans kept in memory to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	buf, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
