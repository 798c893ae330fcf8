package main

import "time"

// Host-speed calibration.
//
// The reference box, and the box the accepting driver measures on, run the
// same code 20-45 % slower for minutes at a time: a neighbour lands on the
// sibling hyperthreads, no steal time is reported, and every workload slows
// alike (README.md, "Host-speed calibration"). Ten runs that straddle such a
// spell spread 20-30 %, more than any bound a regression gate can usefully
// carry.
//
// So the end-to-end pass times a fixed piece of work of its own — calibrate,
// below — before the first iteration and after every one, and divides its
// host times by the mean of those readings: how much slower than the quiet
// reference box the box ran while they were measured. The kernel is frozen:
// it calls nothing in the repository, allocates nothing and does the same
// instructions on the same data every time, so a change to the program under
// test cannot move it, and both sides of any comparison are divided by the
// same yardstick. What is left after the division spread 2-8 % across runs
// whose raw times spread 5-20 %.

// calRefMs is the median host time of one calibrate on the reference box
// while it is quiet. It only fixes the scale: with it a normalised
// millisecond is a millisecond of the quiet reference box.
const calRefMs = 6.7

type calEvent struct{ at, key uint64 }

var (
	calHeap = make([]calEvent, 0, 2048)
	calVec  = func() []float32 {
		v := make([]float32, 1<<16)
		for i := range v {
			v[i] = float32(i%97) - 48
		}
		return v
	}()
	calSink uint64 // keeps the heap's result alive
)

// calibrate runs the kernel once and returns the box's slowdown just now:
// the kernel's host time over calRefMs, 1 on the quiet reference box.
//
// The kernel is five parts event heap — pushes and pops keyed by (time, key)
// as a discrete-event engine does them: branches, compares and dependent
// loads — and one part Hadamard butterflies over 256 KiB of floats: loads,
// adds and stores. A busy sibling hyperthread slows the first 1.4 times and
// the second 1.8 to 2 times; the workloads slow 1.35 to 1.5 times, and the
// five-to-one mix tracks them best on the runs recorded in README.md.
func calibrate() float64 {
	start := time.Now()

	less := func(a, b calEvent) bool { return a.at < b.at || (a.at == b.at && a.key < b.key) }
	h := calHeap[:0]
	x, now := uint64(88172645463325252), uint64(0)
	for i := 0; i < 50000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h = append(h, calEvent{now + x%5000, x})
		for c := len(h) - 1; c > 0; {
			p := (c - 1) / 2
			if !less(h[c], h[p]) {
				break
			}
			h[p], h[c] = h[c], h[p]
			c = p
		}
		if len(h) > 2000 || i%2 == 1 {
			now = h[0].at
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
			for c := 0; ; {
				l, r, m := 2*c+1, 2*c+2, c
				if l < last && less(h[l], h[m]) {
					m = l
				}
				if r < last && less(h[r], h[m]) {
					m = r
				}
				if m == c {
					break
				}
				h[m], h[c] = h[c], h[m]
				c = m
			}
		}
	}

	// Two orthonormal transforms return the vector to where it began, so the
	// data, like the work, is the same on every call.
	v := calVec
	for pass := 0; pass < 2; pass++ {
		for half := 1; half < len(v); half <<= 1 {
			for i := 0; i < len(v); i += half << 1 {
				for j := i; j < i+half; j++ {
					a, b := v[j], v[j+half]
					v[j], v[j+half] = a+b, a-b
				}
			}
		}
		for i := range v {
			v[i] *= 1.0 / 256 // 1/sqrt(len(v))
		}
	}
	calSink += now + uint64(len(h)) // calVec is package-level: its stores stay

	return time.Since(start).Seconds() * 1e3 / calRefMs
}

// scaled returns v with every element multiplied by f.
func scaled(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}
