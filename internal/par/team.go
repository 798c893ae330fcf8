package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Team is a fixed crew of persistent workers for repeated fork-join
// phases: Run pins one function call per member — the shard-worker
// pattern of the sharded netsim engine, where shard i's timer wheel must
// only ever be touched by executor i and every synchronization window
// must not pay a goroutine spawn (or a closure allocation) — and ForEach
// (par.go) is one Run phase in which members draw indices from a counter.
//
// Worker 0 is the calling goroutine: a Team of size 1 spawns nothing and
// Run degenerates to a plain call. Workers 1..n-1 are persistent
// goroutines; Close joins them. Run is a barrier: it returns only after
// every worker's f returned, so the caller's writes before Run are
// visible to all workers and every worker's writes during f are visible
// to the caller after Run.
//
// A phase is published by bumping an atomic phase counter, and each
// worker that finishes it decrements an atomic count of unfinished
// ones. Both sides wait the same way: poll the other side's atomic for
// spinBudget polls, yielding now and then, then park on a sync.Cond; a
// side signals only when the other is parked. A phase that follows the
// last one closely — a netsim window — thus costs no futex wake-up. A
// team with more members than min(GOMAXPROCS, NumCPU) at NewTeam never
// spins: a spinner would hold the CPU the member it waits for needs, so
// both sides park at once.
//
// Run and Close are driven by one goroutine at a time and must not be
// called concurrently with each other or with ForEach.
type Team struct {
	*hot
	n       int
	spin    bool
	mu      sync.Mutex
	wake    sync.Cond    // parked workers wait here for the next phase
	done    sync.Cond    // a parked caller waits here for left == 0
	parked  atomic.Int32 // workers parked (or about to) on wake
	waiting atomic.Bool  // the caller is parked (or about to) on done
	exited  sync.WaitGroup

	// A ForEach phase: the call that holds busy sets the rest before Run.
	busy    atomic.Bool
	next    atomic.Int64 // the next index to draw
	items   int
	workers int
	body    func(w, i int)
	draw    func(int) // t.drawAll, bound once
}

// hot holds the words every phase touches: the caller writes f, left
// and phase, the workers left. They share one cache line — a round trip
// over one line is about twice as fast as over two — allocated on its
// own, as a 64-byte object, which the allocator aligns to 64 bytes.
type hot struct {
	phase atomic.Uint64 // bumped once per published phase
	f     func(int)     // the current phase's function; nil tells workers to exit
	left  atomic.Int64  // workers that have not finished the current phase
	_     [32]byte
}

// yieldEvery is how often a spinning side calls runtime.Gosched:
// yielding every 64 polls doubled BenchmarkTeamRun's empty phase; every
// 256 is noise. spinBudget (spin.go, spin_race.go) is how many polls it
// makes before it parks.
const yieldEvery = 1 << 8

// NewTeam returns a team of n pinned executors (n < 1 is treated as 1).
// It spawns n-1 worker goroutines; call Close when done with the team.
func NewTeam(n int) *Team {
	if n < 1 {
		n = 1
	}
	t := &Team{hot: new(hot), n: n, spin: n <= min(runtime.GOMAXPROCS(0), runtime.NumCPU())}
	t.draw = t.drawAll
	t.wake.L = &t.mu
	t.done.L = &t.mu
	t.exited.Add(n - 1)
	for w := 1; w < n; w++ {
		go t.work(w)
	}
	return t
}

// work is worker w's loop: wait for a phase, run it, count it done.
func (t *Team) work(w int) {
	defer t.exited.Done()
	var seen uint64
	for {
		seen = t.await(seen)
		f := t.f
		if f == nil {
			return
		}
		f(w)
		if t.left.Add(-1) == 0 && t.waiting.Load() {
			t.wakeAll(&t.done)
		}
	}
}

// await returns the phase counter once it differs from seen. A worker
// marks itself parked before its last look at the counter, and publish
// bumps the counter before it looks for parked workers, so one of the
// two always sees the other; join and work pair up the same way.
func (t *Team) await(seen uint64) uint64 {
	if t.spinFor(func() bool { return t.phase.Load() != seen }) {
		return t.phase.Load()
	}
	t.mu.Lock()
	t.parked.Add(1)
	p := t.phase.Load()
	for ; p == seen; p = t.phase.Load() {
		t.wake.Wait()
	}
	t.parked.Add(-1)
	t.mu.Unlock()
	return p
}

// publish hands f to every worker as the next phase.
func (t *Team) publish(f func(int)) {
	t.f = f
	t.left.Store(int64(t.n - 1))
	t.phase.Add(1)
	if t.parked.Load() > 0 {
		t.wakeAll(&t.wake)
	}
}

// join returns once every worker finished the current phase.
func (t *Team) join() {
	if t.spinFor(func() bool { return t.left.Load() == 0 }) {
		return
	}
	t.mu.Lock()
	t.waiting.Store(true)
	for t.left.Load() != 0 {
		t.done.Wait()
	}
	t.waiting.Store(false)
	t.mu.Unlock()
}

// spinFor polls ready, yielding now and then, until it holds or the spin
// budget is spent (at once on a team that does not spin), and reports
// whether it held.
func (t *Team) spinFor(ready func() bool) bool {
	for i := 1; t.spin && i <= spinBudget; i++ {
		if ready() {
			return true
		}
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	return false
}

// wakeAll wakes c's waiters. Taking mu first lets a waiter that marked
// itself parked, under mu, reach Wait before the wake-up.
func (t *Team) wakeAll(c *sync.Cond) {
	t.mu.Lock()
	t.mu.Unlock()
	c.Broadcast()
}

// Run executes f(i) for every executor i in [0, n) — f(0) on the calling
// goroutine, the rest on the pinned workers — and returns after all of
// them completed (a full barrier).
func (t *Team) Run(f func(i int)) {
	if t.n == 1 {
		f(0)
		return
	}
	t.publish(f)
	f(0)
	t.join()
}

// Close joins the worker goroutines: it returns once every one of them
// has exited. The team must be idle; Run must not be called afterwards.
func (t *Team) Close() {
	t.publish(nil)
	t.exited.Wait()
}
