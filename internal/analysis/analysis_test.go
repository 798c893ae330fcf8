package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want is one expectation parsed from a fixture's `// want "regexp"`
// comment: a diagnostic whose message matches re on that exact line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile(`want\s+"((?:[^"\\]|\\.)*)"`)

// collectWants parses every fixture file in dir for want comments.
func collectWants(t *testing.T, dir string) []want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var wants []want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					pat := strings.ReplaceAll(m[1], `\"`, `"`)
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", e.Name(), pat, err)
					}
					wants = append(wants, want{
						file: e.Name(),
						line: fset.Position(c.Pos()).Line,
						re:   re,
					})
				}
			}
		}
	}
	return wants
}

// runFixture loads the single-package fixture in dir, runs one analyzer,
// and diffs its diagnostics against the fixture's want comments.
func runFixture(t *testing.T, checkName, dir string) {
	t.Helper()
	az := ByName(checkName)
	if az == nil {
		t.Fatalf("no analyzer named %q", checkName)
	}
	pkg, err := LoadDir(dir, "fixture/"+filepath.ToSlash(dir))
	if err != nil {
		t.Fatal(err)
	}
	got := Run([]*Package{pkg}, []*Analyzer{az})
	wants := collectWants(t, dir)
	used := make([]bool, len(wants))
	for _, d := range got {
		matched := false
		for i, w := range wants {
			if used[i] || w.file != filepath.Base(d.File) || w.line != d.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				used[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !used[i] {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		check string
		dir   string
	}{
		{"determinism", "testdata/determinism/core"},
		{"determinism", "testdata/determinism/freepkg"},
		{"determinism", "testdata/determinism/kinds"},
		{"determinism", "testdata/determinism/par"},
		{"swallowed-error", "testdata/swallowederror/fix"},
		{"float-equality", "testdata/floateq/feq"},
		{"wire-endianness", "testdata/endian/mixed"},
		{"wire-endianness", "testdata/endian/pure"},
		{"locked-value-copy", "testdata/copylock/locks"},
		{"wallclock", "testdata/wallclock/ddp"},
		{"wallclock", "testdata/wallclock/metrics"},
		{"poolownership", "testdata/poolownership/netsim"},
		{"poolownership", "testdata/poolownership/par"},
		{"poolownership", "testdata/poolownership/clean"},
		{"goroutinebound", "testdata/goroutinebound/spawn"},
		{"goroutinebound", "testdata/goroutinebound/par"},
		{"goroutinebound", "testdata/goroutinebound/shardteam"},
		{"obshotpath", "testdata/obshotpath/hot"},
		{"obshotpath", "testdata/obshotpath/cold"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.check+"/"+filepath.Base(c.dir), func(t *testing.T) {
			runFixture(t, c.check, c.dir)
		})
	}
}

// TestDirectiveValidation checks that malformed //trimlint:allow comments
// are themselves findings. The fixture has no want comments: a directive
// occupies its whole comment, so expectations live here instead.
func TestDirectiveValidation(t *testing.T) {
	pkg, err := LoadDir("testdata/directive/dir", "fixture/directive/dir")
	if err != nil {
		t.Fatal(err)
	}
	got := Run([]*Package{pkg}, Analyzers())
	var msgs []string
	for _, d := range got {
		if d.Check != "directive" {
			t.Errorf("unexpected non-directive diagnostic: %s", d)
			continue
		}
		msgs = append(msgs, d.Message)
	}
	if len(msgs) != 2 {
		t.Fatalf("got %d directive diagnostics %v, want 2", len(msgs), msgs)
	}
	if !strings.Contains(msgs[0], "lacks a justification") {
		t.Errorf("first diagnostic %q should demand a justification", msgs[0])
	}
	if !strings.Contains(msgs[1], `unknown check "no-such-check"`) {
		t.Errorf("second diagnostic %q should flag the unknown check", msgs[1])
	}
}

// TestModuleClean runs the full suite over the real module: the tree must
// stay trimlint-clean, so any regression fails tier-1 `go test ./...`
// even without scripts/check.sh.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("only %d packages loaded; loader is missing parts of the tree", len(pkgs))
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("module not trimlint-clean: %s", d)
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pat, rel string
		want     bool
	}{
		{"./...", "internal/core", true},
		{"./...", "", true},
		{"./internal/...", "internal/core", true},
		{"./internal/...", "internal", true},
		{"./internal/...", "cmd/trimlint", false},
		{"./internal/core", "internal/core", true},
		{"./internal/core", "internal/corelib", false},
		{"./internal/core/...", "internal/corelib", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.pat, c.rel); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.pat, c.rel, got, c.want)
		}
	}
}

// TestAllowCoversSameAndNextLine pins the directive's documented scope.
func TestAllowCoversSameAndNextLine(t *testing.T) {
	pkg := &Package{allow: map[string]map[int][]string{
		"f.go": {10: {"determinism"}, 20: {"all"}},
	}}
	cases := []struct {
		line  int
		check string
		want  bool
	}{
		{10, "determinism", true},
		{11, "determinism", true},
		{12, "determinism", false},
		{10, "float-equality", false},
		{21, "float-equality", true},
	}
	for _, c := range cases {
		if got := pkg.allowed("f.go", c.line, c.check); got != c.want {
			t.Errorf("allowed(line %d, %s) = %v, want %v", c.line, c.check, got, c.want)
		}
	}
}
