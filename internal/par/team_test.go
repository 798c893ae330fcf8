package par

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// waitFor polls cond, yielding, until it holds; it fails the test after
// ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		runtime.Gosched()
	}
}

func TestTeamRunCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprint("n=", n), func(t *testing.T) {
			team := NewTeam(n)
			defer team.Close()
			caller := goid()
			calls := make([]atomic.Int32, n)
			var onCaller atomic.Bool
			f := func(i int) {
				calls[i].Add(1)
				if i == 0 {
					onCaller.Store(goid() == caller)
				}
			}
			for phase := 1; phase <= 50; phase++ {
				onCaller.Store(false)
				team.Run(f)
				for i := range calls {
					if got := calls[i].Load(); got != int32(phase) {
						t.Fatalf("after %d phases f(%d) ran %d times", phase, i, got)
					}
				}
				if !onCaller.Load() {
					t.Fatalf("phase %d: f(0) did not run on the calling goroutine", phase)
				}
			}
		})
	}
}

func TestTeamOfOneSpawnsNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	team := NewTeam(1)
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("NewTeam(1) left %d goroutines, want %d", got, base)
	}
	ran := 0
	team.Run(func(i int) { ran++ })
	team.Close()
	if ran != 1 {
		t.Fatalf("Run on a team of one called f %d times", ran)
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("a team of one left %d goroutines, want %d", got, base)
	}
}

// TestTeamRunPublishesWrites writes plain (non-atomic) memory on both
// sides of every barrier; under -race any missing happens-before edge is
// a reported race, and without it a stale read fails the checks.
func TestTeamRunPublishesWrites(t *testing.T) {
	const n = 4
	team := NewTeam(n)
	defer team.Close()
	in := make([]int, n)
	out := make([]int, n)
	for phase := 1; phase <= 200; phase++ {
		for i := range in {
			in[i] = phase * (i + 1)
		}
		team.Run(func(i int) {
			if in[i] != phase*(i+1) {
				out[i] = -1
				return
			}
			out[i] = in[i] + 1
		})
		for i, v := range out {
			if v != phase*(i+1)+1 {
				t.Fatalf("phase %d: worker %d read a stale input or its write was lost (%d)", phase, i, v)
			}
		}
	}
}

// TestTeamParksAndWakes idles a team past the spin budget, so its
// worker parks, and checks the next Run wakes it. A phase in which the
// worker sleeps makes the caller park on its side too. Two members spin
// first wherever GOMAXPROCS and the CPUs allow two.
func TestTeamParksAndWakes(t *testing.T) {
	const n = 2
	team := NewTeam(n)
	defer team.Close()
	var ran atomic.Int32
	f := func(int) { ran.Add(1) }
	for round := 1; round <= 3; round++ {
		team.Run(f)
		waitFor(t, "every worker parks", func() bool { return team.parked.Load() == n-1 })
		team.Run(f)
		if got := ran.Load(); got != int32(2*n*round) {
			t.Fatalf("round %d: %d calls, want %d", round, got, 2*n*round)
		}
	}
	team.Run(func(i int) {
		if i == n-1 {
			time.Sleep(5 * time.Millisecond)
		}
		ran.Add(1)
	})
	if got := ran.Load(); got != int32(7*n) {
		t.Fatalf("%d calls after a slow phase, want %d", got, 7*n)
	}
}

// TestTeamCloseJoins checks that Close returns only once the workers
// have exited. At GOMAXPROCS 1 a worker that signals its exit runs to
// its end before the waiting Close can resume, so the count is back at
// its baseline the moment Close returns; otherwise a worker may still be
// unwinding on a thread the OS has not run yet, and the check waits.
func TestTeamCloseJoins(t *testing.T) {
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprint("procs=", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			team := NewTeam(4)
			team.Run(func(int) {})
			team.Close()
			if procs > 1 {
				waitFor(t, "the workers exit", func() bool { return runtime.NumGoroutine() == base })
			}
			if got := runtime.NumGoroutine(); got != base {
				t.Fatalf("%d goroutines after Close, want the baseline %d", got, base)
			}
		})
	}
}

// TestTeamOversubscribed runs an 8-member team for 1 000 phases at
// GOMAXPROCS 1, where no member may spin.
func TestTeamOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, phases = 8, 1000
	team := NewTeam(n)
	defer team.Close()
	if team.spin {
		t.Fatal("an 8-member team spins at GOMAXPROCS 1")
	}
	var ran atomic.Int64
	for p := 0; p < phases; p++ {
		team.Run(func(int) { ran.Add(1) })
	}
	if got := ran.Load(); got != n*phases {
		t.Fatalf("%d calls, want %d", got, n*phases)
	}
}

// BenchmarkTeamRun measures one empty fork-join phase: the barrier's
// own cost, paid once per netsim window.
func BenchmarkTeamRun(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprint("n=", n), func(b *testing.B) {
			team := NewTeam(n)
			defer team.Close()
			f := func(int) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				team.Run(f)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/phase")
		})
	}
}
