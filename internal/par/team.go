package par

import "sync"

// Team is a fixed crew of persistent workers for repeated fork-join
// phases over the *same* index space — the shard-worker pattern of the
// sharded netsim engine, where every synchronization window runs one
// function per shard and must not pay a goroutine spawn (or a closure
// allocation) per window.
//
// It differs from Pool deliberately: Pool hands out a dynamic index
// stream to however many executors are free, which is right for
// data-parallel loops but wrong for shards — shard i's timer wheel must
// only ever be touched by executor i, so work is pinned, not stolen.
//
// Worker 0 is the calling goroutine: a Team of size 1 spawns nothing and
// Run degenerates to a plain call. Workers 1..n-1 are persistent
// goroutines parked on per-worker task channels; Close joins them (the
// channels are closed and each worker's loop exits). Run is a barrier:
// it returns only after every worker's f returned, so the caller's
// writes before Run are visible to all workers and every worker's
// writes during f are visible to the caller after Run.
//
// A Team is driven by one goroutine at a time; Run and Close must not be
// called concurrently.
type Team struct {
	n     int
	tasks []chan func(int)
	wg    sync.WaitGroup
}

// NewTeam returns a team of n pinned executors (n < 1 is treated as 1).
// It spawns n-1 worker goroutines; call Close when done with the team.
func NewTeam(n int) *Team {
	if n < 1 {
		n = 1
	}
	t := &Team{n: n, tasks: make([]chan func(int), n-1)}
	for i := range t.tasks {
		ch := make(chan func(int))
		t.tasks[i] = ch
		w := i + 1
		go func() {
			for f := range ch {
				f(w)
				t.wg.Done()
			}
		}()
	}
	return t
}

// Run executes f(i) for every executor i in [0, n) — f(0) on the calling
// goroutine, the rest on the pinned workers — and returns after all of
// them completed (a full barrier).
func (t *Team) Run(f func(i int)) {
	t.wg.Add(t.n - 1)
	for _, ch := range t.tasks {
		ch <- f
	}
	f(0)
	t.wg.Wait()
}

// Close joins the worker goroutines. The team must be idle; Run must not
// be called afterwards.
func (t *Team) Close() {
	for _, ch := range t.tasks {
		close(ch)
	}
	t.tasks = nil
}
