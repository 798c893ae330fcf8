package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path ("trimgrad/internal/core").
	Path string
	// Rel is the module-relative directory ("internal/core", "" for root).
	Rel string
	// Name is the package name from the source.
	Name string
	Dir  string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	allow          map[string]map[int][]string
	directiveDiags []Diagnostic
}

// TypeOf is a nil-tolerant shorthand for Info.TypeOf.
func (pkg *Package) TypeOf(e ast.Expr) types.Type { return pkg.Info.TypeOf(e) }

// newInfo allocates the types.Info maps every checker relies on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// stdImporter type-checks standard-library dependencies from source, so
// trimlint needs no compiled export data and no external tooling.
func stdImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}

// moduleImporter resolves module-internal import paths from the already
// type-checked set and defers everything else to the stdlib importer.
type moduleImporter struct {
	mod map[string]*types.Package
	std types.Importer
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := im.mod[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("trimlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("trimlint: no module line in %s/go.mod", root)
}

// skipDir reports whether a directory subtree is never analyzed.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" || name == "scripts" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// LoadModule parses and type-checks every package under the module rooted
// at root whose module-relative path matches one of patterns, plus (for
// import resolution) everything they depend on. Test files are not loaded:
// trimlint checks shipped code, and tests legitimately use timing,
// tolerance tricks, and discarded errors.
//
// Patterns use the familiar go-tool shapes, relative to the module root:
// "./..." (everything), "./internal/...", "./internal/core". LoadModule
// returns only the matched packages.
func LoadModule(root string, patterns []string) ([]*Package, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}

	// Discover every package directory in the module.
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if isSourceFile(e.Name()) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	// Parse everything up front so the import graph is known.
	fset := token.NewFileSet()
	type parsed struct {
		pkg     *Package
		imports []string
	}
	byPath := make(map[string]*parsed)
	var order []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			rel = ""
		}
		ip := modPath
		if rel != "" {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, imports, err := parseDir(fset, dir, ip, rel)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		byPath[ip] = &parsed{pkg: pkg, imports: imports}
		order = append(order, ip)
	}

	// Topologically sort by module-internal imports so dependencies
	// type-check first.
	sorted := make([]string, 0, len(order))
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(ip string) error
	visit = func(ip string) error {
		switch state[ip] {
		case 1:
			return fmt.Errorf("trimlint: import cycle through %s", ip)
		case 2:
			return nil
		}
		state[ip] = 1
		for _, dep := range byPath[ip].imports {
			if _, ok := byPath[dep]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[ip] = 2
		sorted = append(sorted, ip)
		return nil
	}
	for _, ip := range order {
		if err := visit(ip); err != nil {
			return nil, err
		}
	}

	im := &moduleImporter{mod: make(map[string]*types.Package), std: stdImporter(fset)}
	for _, ip := range sorted {
		p := byPath[ip]
		if err := typeCheck(p.pkg, im); err != nil {
			return nil, err
		}
		im.mod[ip] = p.pkg.Types
	}

	var out []*Package
	for _, ip := range order {
		p := byPath[ip]
		if matchAny(patterns, p.pkg.Rel) {
			out = append(out, p.pkg)
		}
	}
	return out, nil
}

// LoadDir parses and type-checks the single package in dir under the given
// import path. It is the fixture-test entry point; fixtures may only
// import the standard library.
func LoadDir(dir, importPath string) (*Package, error) {
	fset := token.NewFileSet()
	pkg, _, err := parseDir(fset, dir, importPath, filepath.Base(dir))
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("trimlint: no Go source files in %s", dir)
	}
	im := &moduleImporter{mod: nil, std: stdImporter(fset)}
	if err := typeCheck(pkg, im); err != nil {
		return nil, err
	}
	return pkg, nil
}

// isSourceFile reports whether name is a non-test Go source file.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// parseDir parses dir's non-test Go files as one package. It returns
// (nil, nil, nil) when the directory holds no Go source.
func parseDir(fset *token.FileSet, dir, importPath, rel string) (*Package, []string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	importSet := make(map[string]bool)
	name := ""
	for _, e := range ents {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		full := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		if name == "" {
			name = f.Name.Name
		} else if f.Name.Name != name {
			return nil, nil, fmt.Errorf("trimlint: %s: package %s and %s in one directory", dir, name, f.Name.Name)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, nil, err
			}
			importSet[ip] = true
		}
	}
	if len(files) == 0 {
		return nil, nil, nil
	}
	imports := make([]string, 0, len(importSet))
	for ip := range importSet {
		imports = append(imports, ip)
	}
	sort.Strings(imports)
	return &Package{
		Path:  importPath,
		Rel:   rel,
		Name:  name,
		Dir:   dir,
		Fset:  fset,
		Files: files,
		Info:  newInfo(),
	}, imports, nil
}

// typeCheck runs go/types over pkg in place.
func typeCheck(pkg *Package, im types.Importer) error {
	var errs []string
	conf := types.Config{
		Importer: im,
		Error: func(err error) {
			if len(errs) < 10 {
				errs = append(errs, err.Error())
			}
		},
	}
	tpkg, err := conf.Check(pkg.Path, pkg.Fset, pkg.Files, pkg.Info)
	if len(errs) > 0 {
		return fmt.Errorf("trimlint: type errors in %s:\n  %s", pkg.Path, strings.Join(errs, "\n  "))
	}
	if err != nil {
		return fmt.Errorf("trimlint: %s: %v", pkg.Path, err)
	}
	pkg.Types = tpkg
	return nil
}

// matchAny reports whether the module-relative path rel matches any
// pattern. An empty pattern list matches everything.
func matchAny(patterns []string, rel string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, pat := range patterns {
		if matchPattern(pat, rel) {
			return true
		}
	}
	return false
}

// matchPattern implements the "./..."-style matching of the go tool over
// module-relative paths.
func matchPattern(pat, rel string) bool {
	pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
	rel = filepath.ToSlash(rel)
	if pat == "..." || pat == "" || pat == "." {
		return true
	}
	if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == prefix || strings.HasPrefix(rel, prefix+"/")
	}
	return rel == pat
}
