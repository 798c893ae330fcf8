// Package par is trimgrad's deterministic parallel-execution substrate:
// one kind of persistent worker crew (Team) plus scratch arenas for the
// per-row buffers the hot paths would otherwise allocate on every call.
//
// The paper's premise is that in-network trimming is cheap relative to
// end-host compression, so the repro's encode/decode and training loops
// must measure the algorithms rather than goroutine-spawn and GC churn.
// DRIVE/EDEN lean on per-row independence for GPU parallelism; the same
// independence lets rows fan out across cores here — but only if the
// result is bit-identical to the serial loop, because determinism
// (seed → byte-identical packets and telemetry) is a repo-wide invariant
// enforced by trimlint and the chaos matrix.
//
// The contract that makes that possible: ForEach hands out *indices*,
// never order-dependent state. A body function must write only to
// storage owned by its index (out[i], rows[i], dw[i·Out:(i+1)·Out]) so
// that any interleaving of workers produces the same bytes as running
// i = 0..n-1 serially. Under that contract the crew is free to schedule
// greedily, and equivalence tests across worker counts {1,2,3,8} (run
// under -race) hold the line.
package par

import "runtime"

// Default is the process-wide crew, GOMAXPROCS members at package
// initialization. Hot paths (core, ml, ddp) fan out on it unless handed an
// explicit worker count.
var Default = NewTeam(runtime.GOMAXPROCS(0))

// Size returns the number of members, the calling goroutine's seat
// included.
func (t *Team) Size() int { return t.n }

// ForEach runs fn(i) for every i in [0, n) using up to workers concurrent
// members (workers <= 0 or above Size means Size). The calling goroutine
// is member 0, so progress never depends on the crew.
//
// Work is handed out by an atomic index counter: fn must be safe to run
// for distinct indices concurrently and must write only to state owned
// by its index. Under that contract the output is bit-identical to the
// serial loop for every worker count. ForEach returns when every index
// has been processed.
//
// ForEach and ForEachWorker are safe for concurrent and nested use: a
// call that finds the crew busy — another goroutine's call, or the one
// whose fn it runs in — runs its indices in order on its own goroutine.
func (t *Team) ForEach(n, workers int, fn func(i int)) {
	t.ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with the executor's identity passed alongside
// the index: fn(w, i) observes w in [0, workers). Callers use w to index
// cached per-worker state (codecs, scratch) without locking. Identities
// are assigned to executors, not indices — which worker processes which
// index is scheduling-dependent, so per-worker state must never leak
// into per-index output. A serial call (one worker, or a busy crew) sees
// w = 0 only.
func (t *Team) ForEachWorker(n, workers int, fn func(worker, i int)) {
	if workers <= 0 {
		workers = t.n
	}
	workers = min(workers, t.n, n)
	if workers <= 1 || !t.busy.CompareAndSwap(false, true) {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	t.items, t.workers, t.body = n, workers, fn
	t.next.Store(0)
	t.Run(t.draw)
	t.body = nil
	t.busy.Store(false)
}

// drawAll is member w's share of a ForEach phase: indices from the
// shared counter until none is left.
func (t *Team) drawAll(w int) {
	if w >= t.workers {
		return
	}
	for i := int(t.next.Add(1)) - 1; i < t.items; i = int(t.next.Add(1)) - 1 {
		t.body(w, i)
	}
}
