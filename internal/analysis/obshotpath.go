package analysis

import (
	"go/ast"
	"go/types"
)

// ObsHotPathAnalyzer keeps observability lookups off the per-event hot
// path. The obs registry's name-resolving methods (Counter, Gauge,
// Histogram, RecordSpan) hash strings and take a lock; they
// are meant to run once at construction time, with the returned handles
// (*obs.Counter etc.) cached in struct fields. This checker finds the
// fabric's dispatch roots — every function switching over a local
// `...Kind` enum, the pooled typed-event pattern of netsim's timer wheel
// — computes call-graph reachability from them (interface calls expanded
// CHA-style), and flags any registry lookup inside that region.
var ObsHotPathAnalyzer = &Analyzer{
	Name: "obshotpath",
	Doc:  "obs registry lookups (Counter/Gauge/Histogram/RecordSpan) must happen at construction time, not in functions reachable from the event-dispatch switch",
	Run:  runObsHotPath,
}

// registryLookupMethods are the name-resolving registry methods; calling
// one per event defeats the pre-resolved-handle design (DESIGN.md §10).
var registryLookupMethods = map[string]bool{
	"Counter":    true,
	"Gauge":      true,
	"Histogram":  true,
	"RecordSpan": true,
}

func runObsHotPath(p *Pass) {
	cg := buildCallGraph(p.Pkg)
	roots := kindSwitchRoots(cg)
	if len(roots) == 0 {
		return
	}
	hot := cg.reachableFrom(roots)
	for _, node := range cg.sortedNodes() {
		if !hot[node.fn] {
			continue
		}
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(p.Pkg, call)
			if callee == nil || !registryLookupMethods[callee.Name()] {
				return true
			}
			if recvNamed(callee) != "Registry" {
				return true
			}
			p.Report(call, "obs registry lookup %s.%s in %s, which is reachable from the event-dispatch switch; resolve the handle at construction time and cache it", recvShort(callee), callee.Name(), node.fn.Name())
			return true
		})
	}
}

// recvShort renders the receiver type name for messages.
func recvShort(fn *types.Func) string {
	if r := recvNamed(fn); r != "" {
		return r
	}
	return "?"
}
