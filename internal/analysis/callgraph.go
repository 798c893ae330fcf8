package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// callGraph is a per-package static call graph. Nodes are the package's
// declared functions and methods; edges are direct calls plus a
// class-hierarchy-style expansion of interface method calls: a call
// through an interface method declared in this package is assumed to
// reach every same-package concrete method with that name. That is
// deliberately over-approximate — reachability clients (obshotpath) want
// "could run on this path", never "definitely runs".
//
// Function-valued calls (closures stored in fields, callbacks like
// Host.Handler) produce no edges, so obshotpath cannot see a lookup made
// through one. DESIGN.md §7 lists the resulting blind spots.
type callGraph struct {
	pkg *Package
	// nodes maps every declared *types.Func (with a body) to its info.
	nodes map[*types.Func]*cgNode
}

// cgNode is one declared function plus its outgoing edges.
type cgNode struct {
	fn      *types.Func
	decl    *ast.FuncDecl
	callees []*types.Func // deduplicated, position-ordered
}

// buildCallGraph constructs the call graph for one package.
func buildCallGraph(pkg *Package) *callGraph {
	cg := &callGraph{pkg: pkg, nodes: make(map[*types.Func]*cgNode)}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			cg.nodes[fn] = &cgNode{fn: fn, decl: fd}
		}
	}
	// Index concrete methods by name for interface-call expansion.
	methodsByName := make(map[string][]*types.Func)
	for fn := range cg.nodes {
		if recvNamed(fn) != "" {
			methodsByName[fn.Name()] = append(methodsByName[fn.Name()], fn)
		}
	}
	for _, node := range cg.nodes {
		seen := make(map[*types.Func]bool)
		add := func(fn *types.Func) {
			if fn != nil && !seen[fn] {
				seen[fn] = true
				node.callees = append(node.callees, fn)
			}
		}
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pkg, call)
			if callee == nil {
				return true
			}
			if isInterfaceMethod(callee) {
				// Expand to every same-package concrete method with the
				// same name (CHA without implements-filtering: cheap and
				// monotone toward over-approximation).
				for _, m := range methodsByName[callee.Name()] {
					add(m)
				}
				return true
			}
			if _, declared := cg.nodes[callee]; declared {
				add(callee)
			}
			return true
		})
		sort.Slice(node.callees, func(i, j int) bool {
			return node.callees[i].Pos() < node.callees[j].Pos()
		})
	}
	return cg
}

// reachableFrom returns the set of declared functions reachable from any
// of the roots, including the roots themselves.
func (cg *callGraph) reachableFrom(roots []*types.Func) map[*types.Func]bool {
	reach := make(map[*types.Func]bool)
	var queue []*types.Func
	for _, r := range roots {
		if !reach[r] {
			reach[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := cg.nodes[fn]
		if node == nil {
			continue
		}
		for _, c := range node.callees {
			if !reach[c] {
				reach[c] = true
				queue = append(queue, c)
			}
		}
	}
	return reach
}

// sortedNodes returns the graph's nodes in source order, so every client
// iterates deterministically.
func (cg *callGraph) sortedNodes() []*cgNode {
	out := make([]*cgNode, 0, len(cg.nodes))
	for _, n := range cg.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].decl.Pos() < out[j].decl.Pos() })
	return out
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for builtins, conversions, and function-valued calls.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// recvNamed returns the name of fn's receiver's named type ("" for plain
// functions and for receivers that are not named types).
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// isInterfaceMethod reports whether fn is declared on an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// kindSwitchRoots returns the package's dispatch roots: every declared
// function whose body switches over a locally declared `...Kind` enum (the
// pooled typed-event pattern of netsim's timer wheel). These are the entry
// points of the per-event hot path.
func kindSwitchRoots(cg *callGraph) []*types.Func {
	var roots []*types.Func
	for _, node := range cg.sortedNodes() {
		found := false
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			t := cg.pkg.TypeOf(sw.Tag)
			named, ok := t.(*types.Named)
			if !ok {
				return true
			}
			obj := named.Obj()
			if obj.Pkg() == cg.pkg.Types && strings.HasSuffix(obj.Name(), "Kind") {
				found = true
				return false
			}
			return true
		})
		if found {
			roots = append(roots, node.fn)
		}
	}
	return roots
}
