package netsim

import (
	"container/heap"
	"fmt"

	"trimgrad/internal/xrand"
)

// refSim is the executable specification of the event order: a
// container/heap binary heap of closure events ordered by (at, causal
// key), sharing no scheduling code with Sim. It derives the keys itself —
// the i-th event scheduled outside any dispatch gets
// xrand.Seed(rootKeySalt, i), the j-th event scheduled while an event with
// key k fires gets xrand.Seed(k, j) — so the differential and fuzz tests in
// sim_diff_test.go check both the wheel's ordering and Sim's key derivation
// against an independent reference, bit for bit.
type refEvent struct {
	at  Time
	key uint64
	fn  func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].key < q[j].key
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	*q = old[:n]
	return ev
}

type refSim struct {
	now       Time
	rootN     uint64    // events scheduled outside any dispatch so far
	firing    *refEvent // the event being dispatched, nil between events
	childN    uint64    // events firing has scheduled so far
	queue     refQueue
	stopped   bool
	processed uint64
}

func (s *refSim) Now() Time { return s.now }

func (s *refSim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", t, s.now))
	}
	var key uint64
	if s.firing != nil {
		key = xrand.Seed(s.firing.key, s.childN)
		s.childN++
	} else {
		key = xrand.Seed(rootKeySalt, s.rootN)
		s.rootN++
	}
	heap.Push(&s.queue, &refEvent{at: t, key: key, fn: fn})
}

func (s *refSim) After(d Time, fn func()) { s.At(s.now+d, fn) }

func (s *refSim) Stop() { s.stopped = true }

func (s *refSim) Run() { s.RunUntil(maxTime) }

func (s *refSim) RunUntil(deadline Time) {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		ev := s.queue[0]
		if ev.at > deadline {
			s.now = deadline
			return
		}
		heap.Pop(&s.queue)
		s.now = ev.at
		s.processed++
		s.firing, s.childN = ev, 0
		ev.fn()
		s.firing = nil
	}
	if !s.stopped && s.now < deadline && deadline < maxTime {
		s.now = deadline
	}
}

func (s *refSim) Pending() int { return len(s.queue) }
