package par

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForEachCoversEveryIndexOnce: every index in [0, n) runs exactly
// once for every worker count, including counts above the crew size.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	p := NewTeam(3)
	defer p.Close()
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		const n = 1000
		counts := make([]int32, n)
		p.ForEach(n, workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForEachBitIdentical: a body that writes only to its index slot
// produces byte-identical output at every worker count.
func TestForEachBitIdentical(t *testing.T) {
	p := NewTeam(4)
	defer p.Close()
	const n = 4096
	ref := make([]uint64, n)
	for i := range ref {
		ref[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	for _, workers := range []int{1, 2, 3, 8} {
		got := make([]uint64, n)
		p.ForEach(n, workers, func(i int) {
			got[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		})
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d = %x, want %x", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestForEachWorkerIdentities: worker ids observed by the body stay in
// [0, workers) so they can index per-worker caches.
func TestForEachWorkerIdentities(t *testing.T) {
	p := NewTeam(4)
	defer p.Close()
	const n, workers = 512, 3
	var bad atomic.Int64
	p.ForEachWorker(n, workers, func(w, i int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d body calls saw a worker id outside [0,%d)", bad.Load(), workers)
	}
}

// TestForEachConcurrentCallers: many goroutines sharing one crew must
// not interfere (run under -race by scripts/check.sh).
func TestForEachConcurrentCallers(t *testing.T) {
	p := NewTeam(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			const n = 256
			out := make([]int, n)
			p.ForEach(n, 3, func(i int) { out[i] = g + i })
			for i := range out {
				if out[i] != g+i {
					t.Errorf("goroutine %d: slot %d = %d", g, i, out[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestForEachNestedAndConcurrent: a body that calls ForEach on its own
// crew, and a second goroutine calling it while the crew is held, both
// find it busy and run serially with worker id 0, and both return the
// serial result. Without the busy fallback a nested call republishes the
// phase it runs in: indices go missing, or the crew deadlocks.
func TestForEachNestedAndConcurrent(t *testing.T) {
	p := NewTeam(3)
	defer p.Close()
	const n, m = 16, 32
	serial := func(base int) []int {
		out := make([]int, m)
		for j := range out {
			out[j] = base*m + j*j
		}
		return out
	}
	var nested [n][]int
	var concurrent []int
	var badWorker atomic.Int64
	inner := func(base int) []int {
		out := make([]int, m)
		p.ForEachWorker(m, 0, func(w, j int) {
			if w != 0 {
				badWorker.Add(1)
			}
			out[j] = base*m + j*j
		})
		return out
	}
	p.ForEach(n, 0, func(i int) {
		nested[i] = inner(i)
		if i == 0 {
			done := make(chan []int)
			go func() { done <- inner(n) }()
			concurrent = <-done
		}
	})
	if badWorker.Load() != 0 {
		t.Fatalf("%d calls on a busy crew saw a worker id other than 0", badWorker.Load())
	}
	for i := range nested {
		if !slices.Equal(nested[i], serial(i)) {
			t.Fatalf("nested call %d = %v, want %v", i, nested[i], serial(i))
		}
	}
	if !slices.Equal(concurrent, serial(n)) {
		t.Fatalf("concurrent call = %v, want %v", concurrent, serial(n))
	}
}

// TestForEachZeroAndNegative: degenerate n values are no-ops.
func TestForEachZeroAndNegative(t *testing.T) {
	p := NewTeam(2)
	defer p.Close()
	ran := false
	p.ForEach(0, 4, func(int) { ran = true })
	p.ForEach(-5, 4, func(int) { ran = true })
	if ran {
		t.Fatal("body ran for n <= 0")
	}
}

// TestScratchRoundTrip: a returned buffer is reused and resliced to the
// requested length.
func TestScratchRoundTrip(t *testing.T) {
	s := Float32s(128)
	if len(s) != 128 {
		t.Fatalf("len = %d, want 128", len(s))
	}
	for i := range s {
		s[i] = float32(i)
	}
	PutFloat32s(s)
	// Ask for a smaller slice: a recycled buffer may come back (length
	// must still be exact), or the pool may have dropped it — both fine.
	s2 := Float32s(64)
	if len(s2) != 64 {
		t.Fatalf("len = %d, want 64", len(s2))
	}
	PutFloat32s(s2)

	u := Uint32s(48)
	if len(u) != 48 {
		t.Fatalf("len = %d, want 48", len(u))
	}
	PutUint32s(u)
}

// TestScratchGrows: requesting more than a recycled capacity allocates
// a correctly-sized buffer instead of returning a short one.
func TestScratchGrows(t *testing.T) {
	PutFloat32s(make([]float32, 8))
	s := Float32s(1 << 12)
	if len(s) != 1<<12 {
		t.Fatalf("len = %d, want %d", len(s), 1<<12)
	}
}

// TestScratchMixedSizesSteadyState: one element type serves row-sized and
// message-sized buffers at once, so gets of the two sizes alternate by
// construction. Each must be served from its own size class — a single
// pool hands the message's buffer to the next row and the row's to the next
// message, which can only drop it — and allocate nothing once warm.
func TestScratchMixedSizesSteadyState(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	get := func(n, class int) []float32 {
		s := Float32s(n)
		if len(s) != n || cap(s) != class {
			t.Fatalf("Float32s(%d): len %d cap %d, want cap %d, its class's", n, len(s), cap(s), class)
		}
		return s
	}
	cycle := func() {
		row, msg := get(1<<11, 1<<11), get(1<<16, 1<<16)
		PutFloat32s(msg)
		PutFloat32s(row)
		// A size that is no power of two shares the class that covers it.
		PutFloat32s(get(23<<11, 1<<16))
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("alternating 2^11 / 2^16 gets and puts allocate %v times a cycle after warm-up, want 0", allocs)
	}
}

// TestDefaultPoolForEach covers the shared Default crew at its default
// worker count.
func TestDefaultPoolForEach(t *testing.T) {
	const n = 100
	out := make([]int, n)
	Default.ForEach(n, 0, func(i int) { out[i] = i + 1 })
	for i := range out {
		if out[i] != i+1 {
			t.Fatalf("slot %d = %d", i, out[i])
		}
	}
}

// BenchmarkForEachOverhead measures the fixed cost of a crew dispatch
// versus the work it fans out (the reason the crew is persistent).
func BenchmarkForEachOverhead(b *testing.B) {
	p := NewTeam(4)
	defer p.Close()
	var sink atomic.Int64
	for i := 0; i < b.N; i++ {
		p.ForEach(64, 4, func(i int) { sink.Add(int64(i)) })
	}
}
