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
	"flag"
	"fmt"
	"os"

	"trimgrad/internal/exp"
	"trimgrad/internal/obs"
	"trimgrad/internal/prof"
)

func main() {
	var (
		name    = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		quick   = flag.Bool("quick", false, "shrink datasets/epochs for a fast smoke run")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		seed    = flag.Uint64("seed", 0, "experiment seed offset")
		metrics = flag.String("metrics", "", "export collected telemetry as JSONL to this file")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trimbench:", err)
		os.Exit(1)
	}
	defer stopProf()

	if *list || *name == "" {
		fmt.Println("available experiments:")
		for _, r := range exp.Experiments() {
			fmt.Printf("  %-16s %s\n", r.Name, r.Desc)
		}
		if *name == "" && !*list {
			os.Exit(2)
		}
		return
	}

	o := exp.Options{Quick: *quick, CSV: *csv, Seed: *seed}
	if *metrics != "" {
		o.Obs = obs.New()
	}
	run := func(r exp.Runner) {
		fmt.Printf("# %s — %s\n\n", r.Name, r.Desc)
		if err := r.Run(os.Stdout, o); err != nil {
			fmt.Fprintf(os.Stderr, "trimbench: %s: %v\n", r.Name, err)
			os.Exit(1)
		}
	}
	if *name == "all" {
		for _, r := range exp.Experiments() {
			run(r)
		}
	} else {
		r, ok := exp.Lookup(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "trimbench: unknown experiment %q (try -list)\n", *name)
			os.Exit(2)
		}
		run(r)
	}

	if *metrics != "" {
		if err := obs.WriteJSONLFile(*metrics, o.Obs.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "trimbench:", err)
			os.Exit(1)
		}
	}
}
