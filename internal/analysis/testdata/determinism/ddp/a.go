// Package ddp is a determinism fixture: its name places it in the
// deterministic set, so wall-clock reads must be reported while duration
// arithmetic stays legal.
package ddp

import "time"

func stampRound() int64 {
	return time.Now().UnixNano() // want "deterministic package ddp calls time.Now"
}

func roundCost(start time.Time) time.Duration {
	return time.Since(start) // want "deterministic package ddp calls time.Since"
}

func deadlineGap(d time.Time) time.Duration {
	return time.Until(d) // want "deterministic package ddp calls time.Until"
}

func durationMath(d time.Duration) float64 {
	// Pure conversions never read the clock.
	return d.Seconds() + (2 * time.Millisecond).Seconds()
}

func allowedProfiling() time.Time {
	//trimlint:allow determinism fixture: annotated exceptions are honored
	return time.Now()
}
