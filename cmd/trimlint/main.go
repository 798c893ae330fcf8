// Command trimlint runs trimgrad's static-analysis suite over the module.
//
// Usage:
//
//	go run ./cmd/trimlint [-list] [packages]
//
// Packages use go-tool patterns relative to the module root ("./...",
// "./internal/core", "./cmd/..."); the default is "./...". trimlint exits
// 0 when the tree is clean, 1 when it has findings, and 2 when it cannot
// load or type-check the code, no package matches, or a flag is unknown.
// -list prints every check with its one-line doc and exits.
//
// Checks:
//
//	determinism        wall-clock/rand/map-order bans in deterministic packages
//	swallowed-error    discarded error values
//	float-equality     exact ==/!= on computed floats
//	wire-endianness    single-endianness wire codec
//	goroutinebound     go statements outside internal/par need a provable join
//
// Lock copies are go vet's copylocks check, which scripts/check.sh runs
// before trimlint.
//
// Findings are suppressed line-by-line with
//
//	//trimlint:allow <check> <one-line justification>
//
// which covers the directive's own line and the line below it. Pooled
// packet records, and obs registry lookups made inside a run, are checked
// when a run drains, by netsim's Network.Audit (DESIGN.md §9, §11).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"trimgrad/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run lints the module containing the working directory and returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trimlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available checks and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.LoadModule(root, patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(pkgs) == 0 {
		// A typo'd pattern must not look like a clean run.
		fmt.Fprintf(stderr, "trimlint: no packages match %s\n", strings.Join(patterns, " "))
		return 2
	}

	diags := analysis.Run(pkgs, analysis.Analyzers())
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "trimlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
