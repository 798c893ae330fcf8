// Package hot is an obshotpath fixture: dispatch switches over a local
// `...Kind` enum, so every function reachable from it is hot, and obs
// registry lookups inside that region are flagged — including ones
// reached through an interface call (the CHA expansion).
package hot

type evKind uint8

const (
	evA evKind = iota
	evB
)

type Counter struct{ n int }

func (c *Counter) Add(n int) { c.n += n }

type Registry struct{}

func (r *Registry) Counter(name string) *Counter { return &Counter{} }

type sink interface {
	deliver()
}

type remote struct {
	reg *Registry
}

func (r *remote) deliver() {
	r.reg.Counter("delivered").Add(1) // want "obs registry lookup"
}

type engine struct {
	reg   *Registry
	out   sink
	drops *Counter
}

// newEngine resolves its handle at construction time: never flagged.
func newEngine(r *Registry, out sink) *engine {
	return &engine{reg: r, out: out, drops: r.Counter("drops")}
}

func (e *engine) dispatch(k evKind) {
	switch k {
	case evA:
		e.onA()
	case evB:
		e.out.deliver()
	default:
		e.drops.Add(1)
	}
}

func (e *engine) onA() {
	e.reg.Counter("a").Add(1) // want "obs registry lookup"
}
