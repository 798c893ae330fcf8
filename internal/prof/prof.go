// Package prof wires the stdlib runtime/pprof profilers into the CLI
// tools (-cpuprofile / -memprofile on trimbench and trainsim). It exists
// so a run can answer "where did the time go" on any hardware with
// nothing but `go tool pprof`; `go run ./benchmark` gives the numbers,
// these profiles give the attribution.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath (when non-empty) and returns a
// stop function that finishes the CPU profile and writes an allocation
// profile to memPath (when non-empty). The stop function is idempotent;
// the tools defer it, so a run that fails still leaves a well-formed
// profile of the work it did.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
			}
		}
		if memPath != "" {
			writeAllocProfile(memPath)
		}
	}, nil
}

// writeAllocProfile snapshots the allocation profile (all allocations
// since program start, plus live-heap numbers) after a final GC, the
// same data `go test -memprofile` records.
func writeAllocProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prof:", err)
		return
	}
	defer f.Close()
	runtime.GC() // flush recently freed objects so live-heap numbers are accurate
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "prof:", err)
	}
}
