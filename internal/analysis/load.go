package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path ("trimgrad/internal/core").
	Path string
	// Name is the package name from the source.
	Name string

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

// listed is the part of one `go list -json` record the loader reads.
type listed struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns with `go list -e -deps -export -json`, run in dir,
// and type-checks every non-standard package in the order go list prints
// them, which puts dependencies first. Standard-library imports come from
// the export files go list names. Patterns are go-tool patterns ("./...",
// "./internal/core", "trimgrad/cmd/...") read relative to dir, and the
// files are those the go tool builds for the current GOOS and GOARCH.
// Test files are not loaded: trimlint checks shipped code, and tests
// legitimately use timing, tolerance tricks, and discarded errors.
//
// Load returns the packages go list does not mark DepOnly. A pattern that
// names no package contributes none; an empty result is the caller's to
// report.
func Load(dir string, patterns ...string) ([]*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-deps", "-export", "-json", "--"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("trimlint: go list: %v\n%s", err, stderr.Bytes())
	}

	fset := token.NewFileSet()
	exports := make(map[string]string) // standard-library import path -> export file
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	mod := make(map[string]*types.Package)
	im := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := mod[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	var pkgs []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listed
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("trimlint: go list output: %v", err)
		}
		if lp.Error != nil {
			if !lp.DepOnly && len(lp.GoFiles) == 0 {
				continue // a pattern that names no package
			}
			return nil, fmt.Errorf("trimlint: %s: %s", lp.ImportPath, strings.TrimSpace(lp.Error.Err))
		}
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		pkg := &Package{Path: lp.ImportPath, Name: lp.Name, Fset: fset, Info: newInfo()}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, f)
		}
		if err := typeCheck(pkg, im); err != nil {
			return nil, err
		}
		mod[pkg.Path] = pkg.Types
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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
