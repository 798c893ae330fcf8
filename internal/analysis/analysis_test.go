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

// moduleRoot is the repository root, seen from this package's directory.
const moduleRoot = "../.."

// byName returns the registered analyzer with the given name, or nil.
func byName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// loadFixture loads the one package in the fixture directory dir, as
// trimlint would load "./"+dir.
func loadFixture(t *testing.T, dir string) []*Package {
	t.Helper()
	pkgs, err := Load(".", "./"+dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("%s: loaded %d packages, want 1", dir, len(pkgs))
	}
	return pkgs
}

// runFixture loads the single-package fixture in dir, runs one analyzer,
// and diffs its diagnostics against the fixture's want comments.
func runFixture(t *testing.T, checkName, dir string) {
	t.Helper()
	az := byName(checkName)
	if az == nil {
		t.Fatalf("no analyzer named %q", checkName)
	}
	got := Run(loadFixture(t, dir), []*Analyzer{az})
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
		{"determinism", "testdata/determinism/ddp"},
		{"determinism", "testdata/determinism/freepkg"},
		{"determinism", "testdata/determinism/kinds"},
		{"determinism", "testdata/determinism/par"},
		{"swallowed-error", "testdata/swallowederror/fix"},
		{"float-equality", "testdata/floateq/feq"},
		{"wire-endianness", "testdata/endian/mixed"},
		{"wire-endianness", "testdata/endian/pure"},
		{"goroutinebound", "testdata/goroutinebound/spawn"},
		{"goroutinebound", "testdata/goroutinebound/par"},
		{"goroutinebound", "testdata/goroutinebound/shardteam"},
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
	got := Run(loadFixture(t, "testdata/directive/dir"), Analyzers())
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
	pkgs, err := Load(moduleRoot, "./...")
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

// A seed is a one-line bug planted in real tree code, with the finding its
// check must report in that file. Each edit's old text must occur exactly
// once in the file, so a tree that drifts fails loudly instead of seeding
// nothing.
type seed struct {
	check string
	file  string      // module-relative
	edits [][2]string // old, new
	want  string      // regexp the finding's message matches
}

var seeds = []seed{
	{"determinism", "internal/collective/plan.go", [][2]string{
		{"import (\n\t\"fmt\"\n", "import (\n\t\"fmt\"\n\t\"time\"\n"},
		{"\tids := hostIDs(workers)\n", "\tids := hostIDs(workers)\n\t_ = time.Now()\n"},
	}, "calls time.Now"},
	{"swallowed-error", "internal/core/core.go", [][2]string{
		{"\tfor _, m := range msg.Meta {\n\t\tif err := dec.Handle(m); err != nil {\n\t\t\treturn nil, Stats{}, err\n\t\t}\n",
			"\tfor _, m := range msg.Meta {\n\t\tdec.Handle(m)\n"},
	}, "error from Handle is silently dropped"},
	{"float-equality", "internal/quant/scalar.go", [][2]string{
		{"float64(lo) < levels", "float64(lo) != levels"},
	}, "exact floating-point != comparison"},
	{"wire-endianness", "internal/wire/meta.go", [][2]string{
		{"binary.BigEndian.PutUint32(pl[4:], n)", "binary.LittleEndian.PutUint32(pl[4:], n)"},
		{"binary.BigEndian.Uint32(pl[4:]),", "binary.LittleEndian.Uint32(pl[4:]),"},
	}, "mixes byte orders"},
	{"goroutinebound", "internal/collective/plan.go", [][2]string{
		{"\tstart := workers[0]", "\tgo hostIDs(workers)\n\tstart := workers[0]"},
	}, "goroutine spawned with no join in run"},
}

// TestSeededBugs plants every seed in one copy of go.mod and the files Load
// lists for the module, lints the copy once, and requires each seed's
// finding: a checker kept in Analyzers() must catch a bug in real code,
// not only in its fixtures.
func TestSeededBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks a copy of the whole module")
	}
	pkgs, err := Load(moduleRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	files := []string{filepath.Join(root, "go.mod")}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, pkg.Fset.File(f.Pos()).Name())
		}
	}
	for _, path := range files {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			t.Fatal(err)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, rel), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range seeds {
		path := filepath.Join(dst, filepath.FromSlash(s.file))
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		for _, e := range s.edits {
			if n := strings.Count(text, e[0]); n != 1 {
				t.Fatalf("%s seed: %q occurs %d times in %s, want 1", s.check, e[0], n, s.file)
			}
			text = strings.Replace(text, e[0], e[1], 1)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err = Load(dst, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, Analyzers())
	for _, s := range seeds {
		re := regexp.MustCompile(s.want)
		file := filepath.Join(dst, filepath.FromSlash(s.file))
		found := false
		for _, d := range diags {
			if d.Check == s.check && d.File == file && re.MatchString(d.Message) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s seeded in %s: no finding matched %q", s.check, s.file, s.want)
		}
	}
}
