package analysis

import (
	"go/ast"
	"go/types"
)

// SwallowedErrorAnalyzer flags discarded errors on the codec and transport
// APIs. A quantization or framing bug that surfaces as a decode error and
// is then thrown away does not crash anything — it just makes convergence
// slightly worse, which is the most expensive kind of bug to find. Every
// Handle/Encode/Decode/Reconstruct/Send error must be checked, counted, or
// explicitly annotated.
var SwallowedErrorAnalyzer = &Analyzer{
	Name: "swallowed-error",
	Doc:  "flag discarded errors from codec/transport calls (Handle, Encode, Decode, Reconstruct, send paths)",
	Run:  runSwallowedError,
}

// watchedCalls are the method/function names whose errors must never be
// silently dropped: the row codec surface, packet assembly, and the
// transport send paths.
var watchedCalls = map[string]bool{
	"Handle":         true,
	"Reconstruct":    true,
	"Encode":         true,
	"EncodeParallel": true,
	"Decode":         true,
	"Send":           true,
	"SendReliable":   true,
	"SendTrimmable":  true,
	"AddMeta":        true,
	"AddData":        true,
	"Assemble":       true,
	"PackRow":        true,
	"PackRowInto":    true,
}

func runSwallowedError(p *Pass) {
	errType := types.Universe.Lookup("error").Type()
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, name, sig := watchedCall(p, n.Rhs[0])
				if sig == nil {
					return true
				}
				res := sig.Results()
				if res.Len() != len(n.Lhs) {
					return true
				}
				for i := 0; i < res.Len(); i++ {
					if !types.Identical(res.At(i).Type(), errType) {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						p.Report(call, "error from %s is discarded; check it, count it in stats, or annotate //trimlint:allow swallowed-error", name)
					}
				}
			case *ast.ExprStmt:
				call, name, sig := watchedCall(p, n.X)
				if sig == nil {
					return true
				}
				res := sig.Results()
				for i := 0; i < res.Len(); i++ {
					if types.Identical(res.At(i).Type(), errType) {
						p.Report(call, "error from %s is silently dropped by using the call as a statement", name)
						break
					}
				}
			}
			return true
		})
	}
}

// watchedCall returns (call, callee name, signature) when e is a call of a
// watched codec/transport function, and nils otherwise.
func watchedCall(p *Pass, e ast.Expr) (*ast.CallExpr, string, *types.Signature) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, "", nil
	}
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	default:
		return nil, "", nil
	}
	if !watchedCalls[name] {
		return nil, "", nil
	}
	tv, ok := p.Pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil, "", nil // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil, "", nil
	}
	return call, name, sig
}
