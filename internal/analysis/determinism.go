package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// DeterminismAnalyzer enforces the shared-randomness and replayability
// contract. Packages on both sides of the wire (and the simulator under
// them) must be bit-deterministic: encoder and decoder derive identical
// randomness from (epoch, msgID, row) via internal/xrand, and a simulated
// run must replay exactly. Three leaks are forbidden inside the
// deterministic packages:
//
//   - wall-clock calls (time.Now, time.Since, ...): real time differs
//     between sender and receiver and between runs;
//   - math/rand (v1 or v2): its streams are not keyed to the protocol
//     state and its global generator is seeded per-process;
//   - ranging over a map: Go randomizes map iteration order, so any
//     output assembled in map order differs run to run.
//
// It also enforces the typed-event dispatch pattern the netsim fabric
// uses for its pooled fast path: a switch over a locally declared
// `...Kind` enum must cover every declared constant of that type with an
// explicit case. A kind that falls through (even into a default clause)
// is an event the scheduler silently mishandles — precisely the class of
// bug that desynchronizes an otherwise deterministic replay.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock time, math/rand, and map-iteration order in the deterministic packages; require exhaustive ...Kind dispatch switches",
	Run:  runDeterminism,
}

// deterministicPkgs names the packages whose outputs must be bit-exact
// across machines and runs: everything an encoded row, a wire packet, or a
// simulator event schedule flows through.
var deterministicPkgs = map[string]bool{
	"core":       true,
	"quant":      true,
	"fwht":       true,
	"xrand":      true,
	"netsim":     true,
	"wire":       true,
	"collective": true,
	"transport":  true,
	"sparse":     true,
	"lowrank":    true,
	// obs is the telemetry registry: its snapshots and exports are part of
	// the reproducible experiment output, so map-order and clock leaks are
	// held to the wire standard (sorted-snapshot sites carry directives).
	"obs": true,
	// exp is the evaluation harness: its tables must reproduce run to run
	// (seeded workloads), so it is held to the same standard; its few
	// wall-clock perf measurements carry explicit allow directives.
	"exp": true,
	// scenario is the one rig every fabric experiment runs through: the
	// tables, digests and fuzz properties above it assume the same bytes
	// from the same seeds at every shard count.
	"scenario": true,
	// par is the worker-pool substrate under the parallel encode/decode
	// and matmul paths: its contract is bit-identical output at every
	// worker count, so any clock, rand, or map-order dependence in its
	// scheduling would silently void that guarantee.
	"par": true,
	// ddp stamps its round spans on the trainer's modelled wall clock: a
	// real clock read there turns the same-seed telemetry export into
	// per-run noise, and its trainers must replay a transcript exactly.
	"ddp": true,
}

// bannedTimeFuncs are the time-package functions that read or wait on the
// wall clock. Pure conversions (time.Duration arithmetic) stay legal.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runDeterminism(p *Pass) {
	if !deterministicPkgs[p.Pkg.Name] {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				p.Report(imp, "deterministic package %s imports %s; use trimgrad/internal/xrand keyed by (epoch, msgID, row) so both ends derive identical streams", p.Pkg.Name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := p.Pkg.Info.Uses[sel.Sel]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
					return true
				}
				if bannedTimeFuncs[obj.Name()] {
					p.Report(n, "deterministic package %s calls time.%s; wall-clock time leaks nondeterminism into encoded output — use the netsim virtual clock", p.Pkg.Name, obj.Name())
				}
			case *ast.RangeStmt:
				if n.X == nil {
					return true
				}
				t := p.Pkg.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					p.Report(n, "deterministic package %s ranges over a map (%s); iteration order is randomized — iterate sorted keys instead", p.Pkg.Name, t.String())
				}
			case *ast.SwitchStmt:
				checkKindSwitch(p, n)
			}
			return true
		})
	}
}

// checkKindSwitch enforces exhaustive dispatch over locally declared
// `...Kind` enums (the pooled typed-event pattern in netsim's scheduler).
// Every package-level constant of the tag's type must appear as a case
// expression; a default clause does not count as coverage, because a new
// kind absorbed by default is handled by no dispatch arm at all.
func checkKindSwitch(p *Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	t := p.Pkg.TypeOf(sw.Tag)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Pkg() != p.Pkg.Types || !strings.HasSuffix(obj.Name(), "Kind") {
		return
	}
	// Enumerate the kind constants. Scope.Names is sorted, so the missing
	// list below is reported in a stable order.
	scope := p.Pkg.Types.Scope()
	var kinds []string
	for _, name := range scope.Names() {
		if c, isConst := scope.Lookup(name).(*types.Const); isConst && types.Identical(c.Type(), named) {
			kinds = append(kinds, name)
		}
	}
	if len(kinds) == 0 {
		return
	}
	covered := make(map[string]bool, len(kinds))
	for _, stmt := range sw.Body.List {
		cc, isCase := stmt.(*ast.CaseClause)
		if !isCase {
			continue
		}
		for _, expr := range cc.List {
			id, isIdent := expr.(*ast.Ident)
			if !isIdent {
				continue
			}
			if used := p.Pkg.Info.Uses[id]; used != nil {
				covered[used.Name()] = true
			}
		}
	}
	var missing []string
	for _, name := range kinds {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		p.Report(sw, "deterministic package %s switches over %s without a case for %s; typed-event dispatch must cover every kind explicitly — an uncovered kind is an event no arm handles, and a default clause does not count as coverage", p.Pkg.Name, obj.Name(), strings.Join(missing, ", "))
	}
}
