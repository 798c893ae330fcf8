package netsim

import (
	"fmt"
	"testing"

	"trimgrad/internal/xrand"
)

// rearmable is the surface the timer differential drives: netsim.Timer,
// and genTimer, the After + generation idiom it replaces.
type rearmable interface {
	Reset(d Time)
	Stop()
}

// genTimer is the reference: every Reset schedules an event, and an event
// whose generation is stale, or that outlived a Stop, does nothing.
type genTimer struct {
	sim   *Sim
	fn    func()
	gen   int
	armed bool
}

func (g *genTimer) Reset(d Time) {
	g.gen++
	gen := g.gen
	g.armed = true
	g.sim.After(d, func() {
		if g.armed && gen == g.gen {
			g.armed = false
			g.fn()
		}
	})
}

func (g *genTimer) Stop() { g.armed = false }

// timerDelay draws a re-arm delay: zero, within a tick, within the wheel,
// or in the overflow heap, so a re-arm can land later or earlier than the
// point already armed.
func timerDelay(r *xrand.Rand) Time {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return Time(r.Intn(1 << slotShift))
	case 2:
		return Time(r.Intn(numSlots << slotShift))
	default:
		return Time(r.Intn(4 * numSlots << slotShift))
	}
}

// timerProgram runs one random program of three timers and plain events
// on a fresh Sim, with timers built by mk, and returns the trace of every
// callback that ran, as (time, causal key, timer), and of Now() after
// every run, plus the events the Sim processed. Callbacks re-arm, stop,
// schedule plain events and call Sim.Stop; between RunUntil slices the
// root context does the same.
func timerProgram(seed uint64, mk func(s *Sim, fn func()) rearmable) ([]string, uint64) {
	s := NewSim()
	r := xrand.New(seed)
	var trace []string
	timers := make([]rearmable, 3)
	var act func()
	act = func() {
		for n := r.Intn(3); n > 0; n-- {
			switch t := timers[r.Intn(len(timers))]; r.Intn(10) {
			case 0, 1:
				t.Stop()
			case 2:
				s.After(timerDelay(r), act)
			case 3:
				if r.Intn(8) == 0 {
					s.Stop()
				}
			default:
				t.Reset(timerDelay(r))
			}
		}
	}
	for i := range timers {
		timers[i] = mk(s, func() {
			trace = append(trace, fmt.Sprintf("timer %d @%d key %x", i, s.Now(), s.ctxKey))
			act()
		})
	}
	for slice := 0; slice < 40; slice++ {
		act()
		s.RunUntil(s.Now() + timerDelay(r))
		trace = append(trace, fmt.Sprintf("slice %d now=%d", slice, s.Now()))
	}
	s.Run()
	return append(trace, fmt.Sprintf("end now=%d", s.Now())), s.Processed
}

// TestTimerMatchesGenerationIdiom: over random programs a Timer runs the
// same callbacks at the same (time, key) as the After + generation idiom,
// with the same Now() after every run, while processing fewer events.
func TestTimerMatchesGenerationIdiom(t *testing.T) {
	var genEvents, timerEvents uint64
	for seed := uint64(0); seed < 300; seed++ {
		want, ge := timerProgram(seed, func(s *Sim, fn func()) rearmable { return &genTimer{sim: s, fn: fn} })
		got, te := timerProgram(seed, func(s *Sim, fn func()) rearmable { return s.NewTimer(fn) })
		diffTraces(t, want, got)
		if te > ge {
			t.Fatalf("seed %d: Timer processed %d events, the idiom %d", seed, te, ge)
		}
		genEvents, timerEvents = genEvents+ge, timerEvents+te
	}
	if timerEvents >= genEvents {
		t.Fatalf("Timer saved no events: %d vs %d", timerEvents, genEvents)
	}
	t.Logf("events: idiom %d, Timer %d", genEvents, timerEvents)
}

// TestTimerRearmEarlierAndStop walks the cases by hand: a re-arm later
// rides the pending event, a re-arm earlier places a new one, a Stop
// keeps fn from running, and the clock ends at the latest point reserved.
func TestTimerRearmEarlierAndStop(t *testing.T) {
	s := NewSim()
	var fired []Time
	tm := s.NewTimer(func() { fired = append(fired, s.Now()) })
	tm.Reset(100)
	tm.Reset(300) // later: no new event
	if s.Pending() != 1 {
		t.Fatalf("a later re-arm placed an event: pending %d", s.Pending())
	}
	s.RunUntil(150) // the event at 100 moves on to 300
	tm.Reset(50)    // 200: earlier than the pending 300
	if s.Pending() != 2 {
		t.Fatalf("an earlier re-arm must place an event: pending %d", s.Pending())
	}
	s.Run()
	if len(fired) != 1 || fired[0] != 200 || s.Now() != 300 {
		t.Fatalf("fired %v, clock %v; want [200] and 300", fired, s.Now())
	}
	tm.Reset(10)
	tm.Stop()
	s.Run()
	if len(fired) != 1 || s.Now() != 310 {
		t.Fatalf("a stopped timer fired (%v) or the clock is %v, want 310", fired, s.Now())
	}
}
