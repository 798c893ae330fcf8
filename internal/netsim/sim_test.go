package netsim

import (
	"slices"
	"testing"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.After(30, func() { order = append(order, 3) })
	s.After(10, func() { order = append(order, 1) })
	s.After(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("final time %v", s.Now())
	}
}

// TestSimTieOrderIsCausalKey replaces TestSimFIFOAtSameTime: FIFO among
// equal timestamps is withdrawn as a contract (it held only while ties
// fell back to a schedule counter, an order no sharded run could
// reproduce). What holds instead: ties fire in causal-key order — every
// event exactly once, the same order each time the same program runs, and
// the order the independent refSim derives — and that order is not the
// order of the At calls.
func TestSimTieOrderIsCausalKey(t *testing.T) {
	// Ten roots at one timestamp; every third schedules a child at that
	// same timestamp from inside its dispatch, so both key streams (root
	// counter and per-dispatch child index) break ties.
	program := func(s scheduler) []int {
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			s.At(5, func() {
				order = append(order, i)
				if i%3 == 0 {
					s.At(5, func() { order = append(order, 100+i) })
				}
			})
		}
		s.Run()
		return order
	}
	first := program(NewSim())
	seen := map[int]bool{}
	for _, v := range first {
		seen[v] = true
	}
	if len(first) != 14 || len(seen) != 14 {
		t.Fatalf("want 14 distinct firings, got %v", first)
	}
	if again := program(NewSim()); !slices.Equal(first, again) {
		t.Fatalf("same program, different tie order:\n first: %v\n again: %v", first, again)
	}
	if ref := program(&refSim{}); !slices.Equal(first, ref) {
		t.Fatalf("tie order differs from the reference heap:\n wheel: %v\n heap:  %v", first, ref)
	}
	roots := slices.DeleteFunc(slices.Clone(first), func(v int) bool { return v >= 100 })
	if slices.IsSorted(roots) {
		t.Fatalf("ties fired in schedule order %v: the tie-break is the causal key, and nothing may rely on FIFO", first)
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := NewSim()
	hits := 0
	s.After(10, func() {
		hits++
		s.After(10, func() {
			hits++
			if s.Now() != 20 {
				t.Errorf("inner event at %v", s.Now())
			}
		})
	})
	s.Run()
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim()
	fired := 0
	s.At(10, func() { fired++ })
	s.At(100, func() { fired++ })
	s.RunUntil(50)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != 50 {
		t.Fatalf("now = %v, want 50", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.Run()
	if fired != 2 || s.Now() != 100 {
		t.Fatalf("after Run: fired=%d now=%v", fired, s.Now())
	}
}

func TestSimStop(t *testing.T) {
	s := NewSim()
	fired := 0
	s.At(1, func() { fired++; s.Stop() })
	s.At(2, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("Stop did not halt: fired=%d", fired)
	}
}

// TestSimStoppedRunKeepsClock: a stopped RunUntil leaves the clock at the
// stopping event. Advancing it to the deadline would let the next run fire
// the events still pending in the clock's past.
func TestSimStoppedRunKeepsClock(t *testing.T) {
	for _, s := range []scheduler{NewSim(), &refSim{}} {
		var fired []Time
		s.At(1, s.Stop)
		s.At(2, func() { fired = append(fired, s.Now()) })
		s.RunUntil(10)
		if s.Now() != 1 || s.Pending() != 1 {
			t.Fatalf("%T: after a stopped RunUntil(10): now %v, pending %d; want 1, 1", s, s.Now(), s.Pending())
		}
		s.Run()
		if !slices.Equal(fired, []Time{2}) || s.Now() != 2 {
			t.Fatalf("%T: the pending event fired at %v, clock %v; want [2], 2", s, fired, s.Now())
		}
	}
}

func TestSimPastSchedulingPanics(t *testing.T) {
	s := NewSim()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestTimeHelpers(t *testing.T) {
	if Second != 1e9 {
		t.Fatal("Second must be 1e9 ns")
	}
	if (500 * Millisecond).Seconds() != 0.5 {
		t.Fatal("Seconds conversion")
	}
	if (2 * Microsecond).String() != "2µs" {
		t.Fatalf("String: %v", (2 * Microsecond).String())
	}
}
