// Package cold is the clean obshotpath fixture: the dispatch switch is
// present, but every handle is resolved once at construction and only
// pre-resolved handles are touched per event.
package cold

type tickKind int

type Counter struct{ n int }

func (c *Counter) Add(n int) { c.n += n }

type Registry struct{}

func (r *Registry) Counter(name string) *Counter { return &Counter{} }

type loop struct {
	ticks *Counter
	skips *Counter
}

func newLoop(r *Registry) *loop {
	return &loop{ticks: r.Counter("ticks"), skips: r.Counter("skips")}
}

func (l *loop) dispatch(k tickKind) {
	switch k {
	case 0:
		l.ticks.Add(1)
	default:
		l.skips.Add(1)
	}
}
