// Command trimbench regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	trimbench -list
//	trimbench -exp fig3 [-quick] [-csv] [-seed N]
//	trimbench -exp all
//
// Each experiment prints the rows/series of one figure or quantitative
// claim; the mapping to the paper is documented in DESIGN.md (E1–E11) and
// the recorded outputs in EXPERIMENTS.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"trimgrad/internal/exp"
	"trimgrad/internal/obs"
	"trimgrad/internal/prof"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, runs the experiments
// into stdout and returns the exit status — 2 for a rejected invocation
// (one line on stderr), 1 for a failure after the inputs were accepted.
// The profiles are stopped on every return.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("exp", "", "experiment to run (see -list), or 'all'")
		list    = fs.Bool("list", false, "list available experiments")
		quick   = fs.Bool("quick", false, "shrink datasets/epochs for a fast smoke run")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		seed    = fs.Uint64("seed", 0, "experiment seed offset")
		metrics = fs.String("metrics", "", "export collected telemetry as JSONL to this file")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "trimbench:", err)
		return 1
	}

	if *list || *name == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, r := range exp.Experiments() {
			fmt.Fprintf(stdout, "  %-16s %s\n", r.Name, r.Desc)
		}
		if *name == "" && !*list {
			return 2
		}
		return 0
	}
	runners := exp.Experiments()
	if *name != "all" {
		r, ok := exp.Lookup(*name)
		if !ok {
			fmt.Fprintf(stderr, "trimbench: unknown experiment %q (try -list)\n", *name)
			return 2
		}
		runners = []exp.Runner{r}
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	o := exp.Options{Quick: *quick, CSV: *csv, Seed: *seed}
	if *metrics != "" {
		o.Obs = obs.New()
	}
	for _, r := range runners {
		fmt.Fprintf(stdout, "# %s — %s\n\n", r.Name, r.Desc)
		if err := r.Run(stdout, o); err != nil {
			return fail(fmt.Errorf("%s: %w", r.Name, err))
		}
	}
	if *metrics != "" {
		if err := obs.WriteJSONLFile(*metrics, o.Obs.Snapshot()); err != nil {
			return fail(err)
		}
	}
	return 0
}
