package netsim

// Timer is a re-armable one-shot callback, such as a retransmit timeout.
// Reset(d) arms fn to run d from now in place of any earlier deadline;
// Stop disarms it. fn runs exactly where, and under the causal key with
// which, an After at the last Reset would have fired, and the clock after
// a drain reads as if every Reset had placed an event. But Reset only
// reserves its point, placing an event just when none of the timer's own
// is pending at or before it; the earliest pending event, on firing, moves
// on to the armed point, or, once disarmed, to the latest point ever
// reserved. Reset allocates no closure.
type Timer struct {
	sim      *Sim
	fn, fire func() // fire is t.expire, bound once
	armed    bool
	at, last qent   // the armed point and the latest reserved (ev unused)
	pend     []qent // the placed events' points, latest first
}

// NewTimer returns a disarmed timer that runs fn on s.
func (s *Sim) NewTimer(fn func()) *Timer {
	t := &Timer{sim: s, fn: fn}
	t.fire = t.expire
	return t
}

// Reset arms the timer to run fn d from now, replacing any pending
// deadline, earlier or later.
func (t *Timer) Reset(d Time) {
	at := t.sim.now + d
	t.at, t.armed = qent{at: at, key: t.sim.reserve(at)}, true
	if t.last.before(t.at) {
		t.last = t.at
	}
	if n := len(t.pend); n == 0 || t.at.before(t.pend[n-1]) {
		t.place(t.at)
	}
}

// Stop disarms the timer.
func (t *Timer) Stop() { t.armed = false }

func (t *Timer) place(p qent) {
	t.pend = append(t.pend, p)
	t.sim.placeAt(evFunc, p.at, p.key, nil, nil).fn = t.fire
}

// expire is the timer's earliest pending event: it runs fn if it is at the
// armed point, then hands the event on to the next point (the armed one,
// else the latest reserved, if the clock has not reached it) unless
// another pending event covers it.
func (t *Timer) expire() {
	n := len(t.pend) - 1
	fired := t.pend[n]
	t.pend = t.pend[:n]
	if t.armed && fired == t.at {
		t.armed = false
		t.fn()
	}
	next := t.last
	if t.armed {
		next = t.at
	} else if next.at <= fired.at {
		return // the clock has reached every point reserved
	}
	if n = len(t.pend); n == 0 || next.before(t.pend[n-1]) {
		t.place(next)
	}
}
