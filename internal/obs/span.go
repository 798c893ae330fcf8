package obs

// Spans are the tracing half of the registry: named time intervals
// stamped by their callers, in simulated time or a modeled clock. The
// span taxonomy (which package records which names, and in which clock
// domain) is documented
// in DESIGN.md §9; the rule that keeps exports deterministic is that
// spans are only recorded from deterministic single-threaded event paths
// (the simulator loop, the modeled training loop), never from parallel
// worker goroutines.

// KV is one span attribute. Attributes are ordered; equal spans must list
// equal attributes in the same order.
type KV struct {
	K string `json:"k"`
	V string `json:"v"`
}

// SpanPoint is one completed span as it appears in a Snapshot.
type SpanPoint struct {
	Name  string `json:"name"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Attrs []KV   `json:"attrs,omitempty"`
}

// Duration returns End-Start.
func (s SpanPoint) Duration() int64 { return s.End - s.Start }

// Attr returns the value of the named attribute and whether it is set.
func (s SpanPoint) Attr(key string) (string, bool) {
	for _, kv := range s.Attrs {
		if kv.K == key {
			return kv.V, true
		}
	}
	return "", false
}

// RecordSpan appends a completed span with the caller's timestamps
// (e.g. netsim.Time values converted with int64); the registry has no
// clock of its own.
func (r *Registry) RecordSpan(name string, start, end int64, attrs ...KV) {
	if r == nil {
		return
	}
	sp := SpanPoint{Name: name, Start: start, End: end}
	if len(attrs) > 0 {
		sp.Attrs = append([]KV(nil), attrs...)
	}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}
