// Command trimlint runs trimgrad's static-analysis suite over the module.
//
// Usage:
//
//	go run ./cmd/trimlint [flags] [packages]
//
// Packages use go-tool patterns relative to the module root ("./...",
// "./internal/core", "./cmd/..."); the default is "./...". trimlint exits
// 0 when the tree is clean, 1 when it has findings, and 2 when it cannot
// load or type-check the code.
//
// Flags:
//
//	-json            emit findings as a SARIF 2.1.0 document instead of text
//	-enable  a,b,c   run only the named checks
//	-disable a,b,c   run all checks except the named ones
//	-list            print the available checks and exit
//	-nocache         ignore and do not update the lint cache
//
// Checks (see -list for one-line docs):
//
//	determinism        wall-clock/rand/map-order bans in deterministic packages
//	swallowed-error    discarded error values
//	float-equality     exact ==/!= on computed floats
//	wire-endianness    single-endianness wire codec
//	locked-value-copy  mutex-holding values passed by copy
//	wallclock          wall-clock reads outside sanctioned packages
//	poolownership      pooled packets and par scratch reach exactly one
//	                   release on every path
//	goroutinebound     go statements outside internal/par need a provable join
//	obshotpath         obs registry lookups stay out of event-dispatch paths
//
// Results are cached under <module>/.trimlint-cache keyed by a content
// hash of every non-test source file plus the flag set, so an unchanged
// tree re-lints in milliseconds; -nocache bypasses it.
//
// Findings are suppressed line-by-line with
//
//	//trimlint:allow <check> <one-line justification>
//
// which covers the directive's own line and the line below it. The
// poolownership checker additionally honors
//
//	//trimlint:owner transfer <one-line justification>
//
// marking a deliberate ownership hand-off (store into a long-lived
// structure) as a transfer rather than an escape.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"trimgrad/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a SARIF document")
	enable := flag.String("enable", "", "comma-separated checks to run (default: all)")
	disable := flag.String("disable", "", "comma-separated checks to skip")
	list := flag.Bool("list", false, "list available checks and exit")
	noCache := flag.Bool("nocache", false, "ignore and do not update the lint cache")
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trimlint:", err)
		os.Exit(2)
	}

	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var cache *lintCache
	if !*noCache {
		if c, err := openCache(root, patterns, *enable, *disable); err == nil {
			cache = c
			if diags, ok := cache.lookup(); ok {
				emit(root, diags, *jsonOut)
				return
			}
		}
		// A cache that cannot be opened or read is simply skipped: the
		// lint result must never depend on cache health.
	}

	pkgs, err := analysis.LoadModule(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		// A typo'd pattern must not look like a clean run.
		fmt.Fprintf(os.Stderr, "trimlint: no packages match %s\n", strings.Join(patterns, " "))
		os.Exit(2)
	}

	diags := analysis.Run(pkgs, analyzers)
	if cache != nil {
		cache.store(diags)
	}
	emit(root, diags, *jsonOut)
}

// emit prints the findings in the selected format and exits non-zero when
// there are any.
func emit(root string, diags []analysis.Diagnostic, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(analysis.ToSarif(root, diags)); err != nil {
			fmt.Fprintln(os.Stderr, "trimlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !jsonOut {
			fmt.Fprintf(os.Stderr, "trimlint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// selectAnalyzers applies the -enable/-disable flags to the registry.
func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, error) {
	if enable != "" && disable != "" {
		return nil, fmt.Errorf("-enable and -disable are mutually exclusive")
	}
	all := analysis.Analyzers()
	if enable != "" {
		var out []*analysis.Analyzer
		for _, name := range strings.Split(enable, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				return nil, fmt.Errorf("unknown check %q (see -list)", name)
			}
			out = append(out, a)
		}
		return out, nil
	}
	if disable != "" {
		skip := make(map[string]bool)
		for _, name := range strings.Split(disable, ",") {
			name = strings.TrimSpace(name)
			if analysis.ByName(name) == nil {
				return nil, fmt.Errorf("unknown check %q (see -list)", name)
			}
			skip[name] = true
		}
		var out []*analysis.Analyzer
		for _, a := range all {
			if !skip[a.Name] {
				out = append(out, a)
			}
		}
		return out, nil
	}
	return all, nil
}
