// Package analysis implements trimlint, trimgrad's in-tree static-analysis
// pass. The invariants that make packet trimming correct are invisible to
// the Go compiler: sender and receiver must derive bit-identical shared
// randomness keyed by (epoch, msgID, row), the discrete-event simulator
// must replay identically, and the wire codec must never mix endianness or
// swallow decode errors. trimlint turns those comment-only contracts into
// machine-checked ones.
//
// The package is pure standard library (go/parser, go/ast, go/token,
// go/types); it deliberately avoids golang.org/x/tools so the repository
// stays dependency-free. Checkers are registered as Analyzers and run over
// type-checked packages loaded by LoadModule (the real tree) or LoadDir
// (fixture self-tests).
//
// Findings can be suppressed line-by-line with a directive comment:
//
//	//trimlint:allow <check>[,<check>...] <one-line justification>
//
// The directive suppresses matching diagnostics on its own line and on the
// line directly below it, so it works both as an end-of-line comment and as
// a standalone comment above the offending statement. The justification is
// mandatory: a bare directive is itself reported (check "directive"), as is
// a directive naming an unknown check.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the checker in output, -list, and allow directives.
	Name string
	// Doc is a one-line description shown by `trimlint -list`.
	Doc string
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass)
}

// A Diagnostic is a single finding.
type Diagnostic struct {
	Check   string
	File    string
	Line    int
	Col     int
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// A Pass carries one analyzer's run over one package.
type Pass struct {
	Check string
	Pkg   *Package
	diags *[]Diagnostic
}

// Report records a finding at n's position unless an allow directive
// suppresses it.
func (p *Pass) Report(n ast.Node, format string, args ...interface{}) {
	pos := p.Pkg.Fset.Position(n.Pos())
	if p.Pkg.allowed(pos.Filename, pos.Line, p.Check) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Check,
		File:    pos.Filename,
		Line:    pos.Line,
		Col:     pos.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full checker suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		SwallowedErrorAnalyzer,
		FloatEqualityAnalyzer,
		WireEndiannessAnalyzer,
		GoroutineBoundAnalyzer,
	}
}

// Run executes the analyzers over every package and returns the surviving
// diagnostics sorted by position. Directive-syntax problems (missing
// justification, unknown check name) are appended under the pseudo-check
// "directive".
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, pkg.parseDirectives(known)...)
		for _, a := range analyzers {
			a.Run(&Pass{Check: a.Name, Pkg: pkg, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return diags
}

// directivePrefix introduces an allow directive comment.
const directivePrefix = "trimlint:allow"

// parseDirectives scans the package's comments for //trimlint:allow
// directives, populating pkg.allow and returning diagnostics for malformed
// ones. It is idempotent.
func (pkg *Package) parseDirectives(known map[string]bool) []Diagnostic {
	if pkg.allow != nil {
		return pkg.directiveDiags
	}
	pkg.allow = make(map[string]map[int][]string)
	var diags []Diagnostic
	report := func(pos token.Position, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{
			Check:   "directive",
			File:    pos.Filename,
			Line:    pos.Line,
			Col:     pos.Column,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(pos, "trimlint:allow directive names no check")
					continue
				}
				checks := strings.Split(fields[0], ",")
				bad := false
				for _, ch := range checks {
					if ch != "all" && !known[ch] {
						report(pos, "trimlint:allow names unknown check %q", ch)
						bad = true
					}
				}
				if bad {
					continue
				}
				if len(fields) < 2 {
					report(pos, "trimlint:allow %s lacks a justification; say why the exception is safe", fields[0])
					continue
				}
				byLine := pkg.allow[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					pkg.allow[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], checks...)
			}
		}
	}
	pkg.directiveDiags = diags
	return diags
}

// allowed reports whether check is suppressed at file:line: a directive on
// the same line (end-of-line comment) or the line above (standalone
// comment) matches.
func (pkg *Package) allowed(file string, line int, check string) bool {
	byLine := pkg.allow[file]
	if byLine == nil {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		for _, ch := range byLine[l] {
			if ch == check || ch == "all" {
				return true
			}
		}
	}
	return false
}
