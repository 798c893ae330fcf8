// Package par is trimgrad's deterministic parallel-execution substrate:
// a persistent worker pool plus scratch arenas for the per-row buffers
// the hot paths would otherwise allocate on every call.
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
// i = 0..n-1 serially. Under that contract the pool is free to schedule
// greedily, and equivalence tests across worker counts {1,2,3,8} (run
// under -race) hold the line.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent, lazily-started set of worker goroutines. The
// zero-cost alternative to spawning a fresh fan-out per call: goroutines
// start on first use and then block on a task channel, so steady-state
// ForEach calls pay only channel sends, never goroutine creation.
//
// A Pool is safe for concurrent use. Its goroutines are daemons — they
// are never torn down, which is fine for a process-lifetime pool (the
// scheduler parks them when idle).
type Pool struct {
	size  int
	once  sync.Once
	tasks chan func()
}

// NewPool returns a pool of the given size; size <= 0 means
// runtime.GOMAXPROCS(0) at construction time. The goroutines are not
// started until the first ForEach call.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	return &Pool{size: size}
}

// Default is the process-wide pool, sized to GOMAXPROCS at package
// initialization. Hot paths (core, ml) schedule onto it unless handed an
// explicit worker count.
var Default = NewPool(0)

// Size returns the number of resident worker goroutines.
func (p *Pool) Size() int { return p.size }

// start launches the resident workers exactly once.
func (p *Pool) start() {
	p.once.Do(func() {
		p.tasks = make(chan func(), p.size)
		for i := 0; i < p.size; i++ {
			go func() {
				for fn := range p.tasks {
					fn()
				}
			}()
		}
	})
}

// ForEach runs fn(i) for every i in [0, n) using up to workers
// concurrent executors (workers <= 0 means the pool size). The calling
// goroutine participates, so progress never depends on pool capacity.
//
// Work is handed out by an atomic index counter: fn must be safe to run
// for distinct indices concurrently and must write only to state owned
// by its index. Under that contract the output is bit-identical to the
// serial loop for every worker count. ForEach returns when every index
// has been processed.
func (p *Pool) ForEach(n, workers int, fn func(i int)) {
	p.ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with the executor's identity passed alongside
// the index: fn(w, i) observes w in [0, workers). Callers use w to index
// cached per-worker state (codecs, scratch) without locking. Identities
// are assigned to executors, not indices — which worker processes which
// index is scheduling-dependent, so per-worker state must never leak
// into per-index output.
func (p *Pool) ForEachWorker(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = p.size
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	loop := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	p.start()
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		w := w
		wg.Add(1)
		p.tasks <- func() {
			defer wg.Done()
			loop(w)
		}
	}
	loop(0)
	wg.Wait()
}
