package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineBoundAnalyzer bans unbounded goroutine spawns. The fabric's
// determinism contract (DESIGN.md §6) allows concurrency only inside
// internal/par, whose worker crew (par.Team) is the one sanctioned spawn
// site. Anywhere else, a `go` statement is accepted only when the enclosing
// function declaration also contains a provable join: a channel receive
// (`<-ch`, including range-over-channel) or a call to a method named Wait
// (sync.WaitGroup.Wait and friends). A spawn with no in-function join is
// exactly the shape that turns a hot path into an unbounded-goroutine
// leak under load, and makes replay nondeterministic.
var GoroutineBoundAnalyzer = &Analyzer{
	Name: "goroutinebound",
	Doc:  "go statements outside internal/par need a provable join (channel receive or Wait) in the same function",
	Run:  runGoroutineBound,
}

func runGoroutineBound(p *Pass) {
	if p.Pkg.Name == "par" {
		return // the worker crew is the sanctioned spawn site
	}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var spawns []*ast.GoStmt
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					spawns = append(spawns, g)
				}
				return true
			})
			if len(spawns) == 0 {
				continue
			}
			if hasJoin(p.Pkg, fd.Body) {
				continue
			}
			for _, g := range spawns {
				p.Report(g, "goroutine spawned with no join in %s: add a channel receive or Wait in this function, or route the work through internal/par", fd.Name.Name)
			}
		}
	}
}

// hasJoin reports whether body contains a channel receive, a range over a
// channel, or a call to a method named Wait. Joins inside function
// literals declared in the same body count too — over-approximating
// toward fewer false positives.
func hasJoin(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pkg.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				found = true
			}
		}
		return !found
	})
	return found
}
