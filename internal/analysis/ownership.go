package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// PoolOwnershipAnalyzer tracks pooled values — Sim.NewPacket packets and
// internal/par scratch slices — from acquisition to a terminal owner, and
// demands that every value reaches exactly one release site on every
// path. It is a forward value-flow pass
// over each function, made interprocedural by a per-package fixpoint:
// when a tracked value is passed to a package-local function, that
// function's parameter joins the tracked set, its own body is analyzed
// under the ownership obligation, and the call site inherits the result
// (consumed on every path → the caller's obligation is discharged;
// consumed on no path → a borrow, the caller still owns the value).
//
// Flagged: values that leak (no release on some path), double releases,
// uses after a release, and escapes into long-lived storage — struct
// fields, slices, maps, channels, goroutines, captured closures. A
// legitimate hand-off point (the fabric queue, the pooled event record)
// is annotated in source:
//
//	//trimlint:owner transfer <one-line justification>
//
// which converts the escape into an ownership transfer. See DESIGN.md §12
// for the lattice, the summary rules, and the engine's known blind spots.
var PoolOwnershipAnalyzer = &Analyzer{
	Name: "poolownership",
	Doc:  "pooled packets and par scratch must reach exactly one release on every path; escapes need //trimlint:owner transfer",
	Run:  runPoolOwnership,
}

// funcKey names a function for the spec tables: package name, receiver
// named type ("" for plain functions), function name. Matching is by
// name, not import path, so fixture packages can model the real APIs
// with local declarations.
type funcKey struct {
	pkg, recv, name string
}

// keyFor derives the spec key for a resolved callee.
func keyFor(fn *types.Func) funcKey {
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name()
	}
	return funcKey{pkg: pkgName, recv: recvNamed(fn), name: fn.Name()}
}

// acquireSpecs are the pool acquisition points; calling one yields a
// tracked value with the given origin label.
var acquireSpecs = map[funcKey]string{
	{"netsim", "Sim", "NewPacket"}: "pooled packet (Sim.NewPacket)",
	{"par", "", "Float32s"}:        "scratch slice (par.Float32s)",
	{"par", "", "Uint32s"}:         "scratch slice (par.Uint32s)",
}

// consumeSpec describes a call that discharges the ownership obligation
// for specific argument positions. Root sinks recycle the memory itself
// (reads afterwards are use-after-release); non-root entries are transfer
// APIs — ownership moves to another subsystem whose rules DESIGN.md §11
// spells out, and benign same-thread reads are tolerated.
type consumeSpec struct {
	args []int
	root bool
}

var consumeSpecs = map[funcKey]consumeSpec{
	{"netsim", "Sim", "releasePacket"}: {args: []int{0}, root: true},
	{"par", "", "PutFloat32s"}:         {args: []int{0}, root: true},
	{"par", "", "PutUint32s"}:          {args: []int{0}, root: true},
	// Crossing into the fabric transfers ownership: the fabric releases at
	// the packet's terminal point (host delivery or any drop).
	{"netsim", "Host", "Send"}:    {args: []int{0}},
	{"netsim", "Port", "Enqueue"}: {args: []int{0}},
}

// valState is the per-path state of one tracked value.
type valState uint8

const (
	// stLive: acquired, obligation outstanding.
	stLive valState = iota
	// stMaybe: released on some merged-in path but not all.
	stMaybe
	// stDead: released through a root sink; the memory is recycled and any
	// further read is a use-after-release.
	stDead
	// stXfer: ownership transferred (fabric hand-off, annotated escape,
	// consuming callee, returned to the caller). Obligation met; reads
	// tolerated, re-release still flagged where provable.
	stXfer
	// stNil: proven nil on this path; no obligation.
	stNil
)

// released reports whether the obligation is discharged in state s.
func (s valState) released() bool { return s == stDead || s == stXfer || s == stNil }

// cell is one tracked value (an alias class: every variable bound to the
// same underlying value shares the cell). Per-path state lives in env;
// the fields here are cross-path bookkeeping for messages and the final
// per-function verdict.
type cell struct {
	origin  string
	acqNode ast.Node
	relLine int // line of the most recent release (for messages)

	// Parameter cells carry the interprocedural obligation.
	isParam   bool
	paramName string

	anyExitReleased   bool
	anyExitUnreleased bool
	everReleased      bool
}

// cstate is a cell's state on the current path.
type cstate struct {
	st       valState
	deferred bool // a deferred call releases this cell at function exit
}

// env is the walker's per-path abstract state.
type env struct {
	vars  map[*types.Var]*cell
	cells map[*cell]cstate
}

func newEnv() *env {
	return &env{vars: make(map[*types.Var]*cell), cells: make(map[*cell]cstate)}
}

func (e *env) clone() *env {
	c := &env{
		vars:  make(map[*types.Var]*cell, len(e.vars)),
		cells: make(map[*cell]cstate, len(e.cells)),
	}
	for k, v := range e.vars {
		c.vars[k] = v
	}
	for k, v := range e.cells {
		c.cells[k] = v
	}
	return c
}

// merge joins two path states in place (into e). A variable bound to a
// cell on either path keeps the binding, so a later release through that
// name still resolves; the state lattice absorbs the imprecision.
func (e *env) merge(o *env) {
	for v, c := range o.vars {
		if _, ok := e.vars[v]; !ok {
			e.vars[v] = c
		}
	}
	for c, os := range o.cells {
		es, ok := e.cells[c]
		if !ok {
			// Acquired on the other path only: the obligation exists only
			// where the acquisition happened; adopt its state as-is.
			e.cells[c] = os
			continue
		}
		e.cells[c] = cstate{
			st:       mergeState(es.st, os.st),
			deferred: es.deferred && os.deferred,
		}
	}
}

func mergeState(a, b valState) valState {
	if a == b {
		return a
	}
	// nil on one path behaves like whatever the other path says.
	if a == stNil {
		return b
	}
	if b == stNil {
		return a
	}
	// Released-on-both in different senses: keep the lenient transfer.
	if a.released() && b.released() {
		return stXfer
	}
	return stMaybe
}

// runPoolOwnership drives the per-package fixpoint: repeat the value-flow
// pass until the tracked-parameter set and consumption summaries are
// stable, then run once more with reporting on.
func runPoolOwnership(p *Pass) {
	oa := newOwnAnalysis(p.Pkg)
	for i := 0; i < 20; i++ {
		if !oa.iterate(nil) {
			break
		}
	}
	oa.iterate(p)
}

// ownAnalysis is the package-level fixpoint state.
type ownAnalysis struct {
	pkg   *Package
	decls map[*types.Func]*ast.FuncDecl
	order []*types.Func
	// owned[fn][i]: some call site passes a tracked value to fn's i-th
	// parameter, so fn is analyzed under the ownership obligation for it.
	owned map[*types.Func]map[int]bool
	// summary[fn][i]: fn discharges the obligation for parameter i on
	// every path (a consuming callee). Grows monotonically from "borrow".
	summary map[*types.Func]map[int]bool
}

func newOwnAnalysis(pkg *Package) *ownAnalysis {
	oa := &ownAnalysis{
		pkg:     pkg,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		owned:   make(map[*types.Func]map[int]bool),
		summary: make(map[*types.Func]map[int]bool),
	}
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
			// Root sinks recycle memory by stuffing values into free
			// lists; their bodies are the trusted boundary of the model,
			// and call sites are intercepted by the spec table, so they
			// are never analyzed under an obligation.
			if spec, isSink := consumeSpecs[keyFor(fn)]; isSink && spec.root {
				continue
			}
			oa.decls[fn] = fd
			oa.order = append(oa.order, fn)
		}
	}
	sort.Slice(oa.order, func(i, j int) bool {
		return oa.decls[oa.order[i]].Pos() < oa.decls[oa.order[j]].Pos()
	})
	return oa
}

// iterate analyzes every declared function once. With a nil pass it only
// updates owned/summary and reports nothing; with a pass it reports.
// Returns whether any interprocedural fact changed.
func (oa *ownAnalysis) iterate(pass *Pass) bool {
	changed := false
	for _, fn := range oa.order {
		w := &ownWalk{
			oa:       oa,
			pass:     pass,
			pkg:      oa.pkg,
			taint:    make(map[*types.Func]map[int]bool),
			reported: make(map[token.Pos]bool),
		}
		consumed := w.analyzeDecl(fn, oa.decls[fn])
		for callee, idxs := range w.taint {
			m := oa.owned[callee]
			if m == nil {
				m = make(map[int]bool)
				oa.owned[callee] = m
			}
			for i := range idxs {
				if !m[i] {
					m[i] = true
					changed = true
				}
			}
		}
		old := oa.summary[fn]
		if !equalIntSet(old, consumed) {
			oa.summary[fn] = consumed
			changed = true
		}
	}
	return changed
}

func intIn(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func equalIntSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// ownWalk analyzes one function (or function literal) body.
type ownWalk struct {
	oa       *ownAnalysis
	pass     *Pass // nil during summary iterations
	pkg      *Package
	cells    []*cell
	taint    map[*types.Func]map[int]bool
	reported map[token.Pos]bool
	// noUse suppresses the use-after-release check while evaluating the
	// consumed arguments of a release call: the double-release diagnostic
	// at the call is the one finding, not a use-after-release too.
	noUse int
}

// analyzeDecl walks fn's body with its owned parameters live and returns
// the set of parameter indices consumed on every path.
func (w *ownWalk) analyzeDecl(fn *types.Func, fd *ast.FuncDecl) map[int]bool {
	e := newEnv()
	sig := fn.Type().(*types.Signature)
	ownedIdx := make([]int, 0, len(w.oa.owned[fn]))
	for i := range w.oa.owned[fn] {
		ownedIdx = append(ownedIdx, i)
	}
	sort.Ints(ownedIdx)
	paramCells := make(map[int]*cell, len(ownedIdx))
	for _, i := range ownedIdx {
		if i >= sig.Params().Len() {
			continue
		}
		v := sig.Params().At(i)
		c := &cell{
			origin:    "pooled value in parameter " + v.Name(),
			acqNode:   fd.Name,
			isParam:   true,
			paramName: v.Name(),
		}
		w.cells = append(w.cells, c)
		e.vars[v] = c
		e.cells[c] = cstate{st: stLive}
		paramCells[i] = c
	}
	if !w.walkBlock(fd.Body, e) {
		w.atExit(e)
	}
	w.finish(fd)

	consumed := make(map[int]bool)
	for i, c := range paramCells {
		if !c.anyExitUnreleased {
			consumed[i] = true
		}
	}
	return consumed
}

// analyzeLit walks a function literal as a fresh scope: its own
// acquisitions carry obligations; captures of outer tracked values were
// already reported as escapes by the enclosing walk.
func (w *ownWalk) analyzeLit(lit *ast.FuncLit) {
	inner := &ownWalk{
		oa:       w.oa,
		pass:     w.pass,
		pkg:      w.pkg,
		taint:    w.taint,
		reported: w.reported,
	}
	e := newEnv()
	if !inner.walkBlock(lit.Body, e) {
		inner.atExit(e)
	}
	inner.finish(lit)
}

// atExit records one path reaching a function exit. A merged "maybe"
// state means released on some incoming path and not on others, so it
// counts as both.
func (w *ownWalk) atExit(e *env) {
	for c, cs := range e.cells {
		switch {
		case cs.deferred || cs.st.released():
			c.anyExitReleased = true
		case cs.st == stMaybe:
			c.anyExitReleased = true
			c.anyExitUnreleased = true
		default:
			c.anyExitUnreleased = true
		}
	}
}

// finish emits the per-cell verdicts after the walk.
func (w *ownWalk) finish(fnNode ast.Node) {
	if w.pass == nil {
		return
	}
	for _, c := range w.cells {
		if c.isParam {
			if c.anyExitReleased && c.anyExitUnreleased {
				w.pass.Report(fnNode, "parameter %s receives pooled values and releases them on some paths but not all; consume on every path or on none", c.paramName)
			}
			continue
		}
		if !c.anyExitUnreleased {
			continue
		}
		if c.everReleased || c.anyExitReleased {
			w.pass.Report(c.acqNode, "%s is released on some paths but not all", c.origin)
		} else {
			w.pass.Report(c.acqNode, "%s is never released, transferred, or returned", c.origin)
		}
	}
}

func (w *ownWalk) report(n ast.Node, format string, args ...interface{}) {
	if w.pass == nil || w.reported[n.Pos()] {
		return
	}
	w.reported[n.Pos()] = true
	w.pass.Report(n, format, args...)
}

func (w *ownWalk) newCell(origin string, n ast.Node, e *env) *cell {
	c := &cell{origin: origin, acqNode: n}
	w.cells = append(w.cells, c)
	e.cells[c] = cstate{st: stLive}
	return c
}

// release discharges c's obligation at n. Root releases recycle memory
// (strict); transfers hand ownership elsewhere (lenient).
func (w *ownWalk) release(c *cell, n ast.Node, root bool, e *env) {
	cs := e.cells[c]
	if cs.st == stNil {
		return // releasing nil is a no-op in every modelled API
	}
	if cs.st == stDead || cs.deferred {
		w.report(n, "%s is released again (previous release at line %d)", c.origin, c.relLine)
		return
	}
	if root {
		cs.st = stDead
	} else {
		cs.st = stXfer
	}
	e.cells[c] = cs
	c.relLine = w.pkg.Fset.Position(n.Pos()).Line
	c.everReleased = true
}

// markDeferred registers a deferred release of c.
func (w *ownWalk) markDeferred(c *cell, n ast.Node, e *env) {
	cs := e.cells[c]
	if cs.st == stDead || cs.deferred {
		w.report(n, "%s is released again (previous release at line %d)", c.origin, c.relLine)
		return
	}
	cs.deferred = true
	e.cells[c] = cs
	c.relLine = w.pkg.Fset.Position(n.Pos()).Line
	c.everReleased = true
}

// escape handles c flowing into long-lived storage at n. An owner
// directive converts it into a transfer; otherwise it is reported. Either
// way the state becomes transferred, so one escape yields one finding,
// not a trailing leak report too.
func (w *ownWalk) escape(c *cell, n ast.Node, what string, e *env) {
	pos := w.pkg.Fset.Position(n.Pos())
	if !w.pkg.ownerTransferAt(pos.Filename, pos.Line) {
		w.report(n, "%s escapes: %s; pooled values must reach exactly one release — annotate a deliberate hand-off with //trimlint:owner transfer <why>", c.origin, what)
	}
	cs := e.cells[c]
	if cs.st == stLive || cs.st == stMaybe {
		cs.st = stXfer
		e.cells[c] = cs
		c.relLine = pos.Line
		c.everReleased = true
	}
}

// eval walks one expression, flagging uses of released values, and
// returns the cell x evaluates to when x is a tracked value.
func (w *ownWalk) eval(x ast.Expr, e *env) *cell {
	switch x := x.(type) {
	case *ast.Ident:
		v, ok := w.pkg.Info.Uses[x].(*types.Var)
		if !ok {
			return nil
		}
		c, ok := e.vars[v]
		if !ok {
			return nil
		}
		if cs := e.cells[c]; cs.st == stDead && w.noUse == 0 {
			w.report(x, "use of %s after release (released at line %d)", c.origin, c.relLine)
		}
		return c
	case *ast.ParenExpr:
		return w.eval(x.X, e)
	case *ast.SliceExpr:
		c := w.eval(x.X, e)
		w.eval(x.Low, e)
		w.eval(x.High, e)
		w.eval(x.Max, e)
		return c // a re-slice aliases the same backing value
	case *ast.CallExpr:
		return w.call(x, e)
	case *ast.SelectorExpr:
		w.eval(x.X, e)
	case *ast.IndexExpr:
		w.eval(x.X, e)
		w.eval(x.Index, e)
	case *ast.IndexListExpr:
		w.eval(x.X, e)
		for _, idx := range x.Indices {
			w.eval(idx, e)
		}
	case *ast.StarExpr:
		w.eval(x.X, e)
	case *ast.UnaryExpr:
		w.eval(x.X, e)
	case *ast.BinaryExpr:
		w.eval(x.X, e)
		w.eval(x.Y, e)
	case *ast.TypeAssertExpr:
		w.eval(x.X, e)
	case *ast.KeyValueExpr:
		w.eval(x.Key, e)
		if c := w.eval(x.Value, e); c != nil {
			w.escape(c, x.Value, "stored in a composite literal", e)
		}
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				w.eval(kv, e)
				continue
			}
			if c := w.eval(elt, e); c != nil {
				w.escape(c, elt, "stored in a composite literal", e)
			}
		}
	case *ast.FuncLit:
		w.captures(x, e)
		w.analyzeLit(x)
	}
	return nil
}

// captures reports tracked outer values referenced inside a function
// literal: the closure may outlive the value's owner.
func (w *ownWalk) captures(lit *ast.FuncLit, e *env) {
	seen := make(map[*cell]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.pkg.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		c, ok := e.vars[v]
		if !ok || seen[c] {
			return true
		}
		seen[c] = true
		w.escape(c, lit, "captured by a closure over "+v.Name(), e)
		return true
	})
}

// call processes one call expression and returns the acquisition cell
// when the call is a pool acquisition.
func (w *ownWalk) call(call *ast.CallExpr, e *env) *cell {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		w.eval(fun.X, e) // method receivers and package qualifiers are uses
	case *ast.Ident:
		if b, ok := w.pkg.Info.Uses[fun].(*types.Builtin); ok {
			return w.builtin(b.Name(), call, e)
		}
	default:
		w.eval(call.Fun, e) // function values, immediately-invoked literals
	}
	callee := calleeFunc(w.pkg, call)
	if callee != nil {
		if origin, ok := acquireSpecs[keyFor(callee)]; ok {
			for _, a := range call.Args {
				w.eval(a, e)
			}
			return w.newCell(origin, call, e)
		}
	}
	// Root sinks always consume. Transfer APIs consume at call sites
	// outside the callee's package; inside it, the callee's own body is
	// in view and the summary path below verifies it instead.
	var spec consumeSpec
	specApplies := false
	if callee != nil {
		if sp, ok := consumeSpecs[keyFor(callee)]; ok && (sp.root || w.oa.decls[callee] == nil) {
			spec, specApplies = sp, true
		}
	}
	cells := make([]*cell, len(call.Args))
	for i, a := range call.Args {
		if specApplies && intIn(spec.args, i) {
			w.noUse++
			cells[i] = w.eval(a, e)
			w.noUse--
			continue
		}
		cells[i] = w.eval(a, e)
	}
	if callee == nil {
		return nil // unresolvable call: every tracked argument is a borrow
	}
	if specApplies {
		for _, i := range spec.args {
			if i < len(cells) && cells[i] != nil {
				w.release(cells[i], call, spec.root, e)
			}
		}
		return nil
	}
	if w.oa.decls[callee] != nil {
		sig := callee.Type().(*types.Signature)
		for i, c := range cells {
			if c == nil {
				continue
			}
			if sig.Variadic() && i >= sig.Params().Len()-1 {
				continue // variadic positions are borrows
			}
			if i >= sig.Params().Len() {
				continue
			}
			m := w.taint[callee]
			if m == nil {
				m = make(map[int]bool)
				w.taint[callee] = m
			}
			m[i] = true
			if w.oa.summary[callee][i] {
				w.release(c, call, false, e)
			}
		}
	}
	return nil
}

// builtin models the builtins that matter for ownership.
func (w *ownWalk) builtin(name string, call *ast.CallExpr, e *env) *cell {
	switch name {
	case "append":
		// append(s, tracked) stores the value in a slice; the result of
		// append(trackedBuf, ...) is treated as the same alias class.
		var first *cell
		for i, a := range call.Args {
			c := w.eval(a, e)
			if i == 0 {
				first = c
				continue
			}
			if c != nil {
				w.escape(c, a, "appended to a slice", e)
			}
		}
		return first
	default:
		for _, a := range call.Args {
			w.eval(a, e)
		}
		return nil
	}
}

// walkBlock walks a statement list; true means every path terminated.
func (w *ownWalk) walkBlock(b *ast.BlockStmt, e *env) bool {
	if b == nil {
		return false
	}
	return w.walkStmts(b.List, e)
}

func (w *ownWalk) walkStmts(list []ast.Stmt, e *env) bool {
	for _, s := range list {
		if w.walkStmt(s, e) {
			return true
		}
	}
	return false
}

// walkStmt interprets one statement; true means the path terminated
// (return, panic, or a branch treated conservatively as an exit from the
// structured walk).
func (w *ownWalk) walkStmt(s ast.Stmt, e *env) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if c := w.call(call, e); c != nil {
				// Acquisition whose result is discarded: the anonymous
				// cell stays live and surfaces as a leak at exit.
				_ = c
			}
			if isPanicCall(w.pkg, call) {
				return true
			}
			return false
		}
		w.eval(s.X, e)
	case *ast.AssignStmt:
		w.assign(s, e)
	case *ast.DeclStmt:
		w.declStmt(s, e)
	case *ast.IncDecStmt:
		w.eval(s.X, e)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if c := w.eval(r, e); c != nil {
				// Returning a tracked value transfers it to the caller.
				w.release(c, r, false, e)
			}
		}
		w.atExit(e)
		return true
	case *ast.DeferStmt:
		w.deferStmt(s, e)
	case *ast.GoStmt:
		w.goStmt(s, e)
	case *ast.SendStmt:
		w.eval(s.Chan, e)
		if c := w.eval(s.Value, e); c != nil {
			w.escape(c, s.Value, "sent on a channel", e)
		}
	case *ast.IfStmt:
		return w.ifStmt(s, e)
	case *ast.SwitchStmt:
		return w.switchStmt(s, e)
	case *ast.TypeSwitchStmt:
		return w.typeSwitchStmt(s, e)
	case *ast.SelectStmt:
		return w.selectStmt(s, e)
	case *ast.ForStmt:
		w.forStmt(s, e)
	case *ast.RangeStmt:
		w.rangeStmt(s, e)
	case *ast.BlockStmt:
		return w.walkBlock(s, e)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, e)
	case *ast.BranchStmt:
		// break/continue/goto leave the structured walk; treating the
		// path as terminated is conservative for leak detection.
		return true
	}
	return false
}

func isPanicCall(pkg *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

func (w *ownWalk) assign(s *ast.AssignStmt, e *env) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// Tuple assignment: no modelled acquisition is multi-valued, so
		// every left-hand side becomes untracked.
		w.eval(s.Rhs[0], e)
		for _, l := range s.Lhs {
			w.bindLHS(l, nil, s, e)
		}
		return
	}
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		// Compound assignment (+=, |=, ...): numeric, plain uses.
		for _, l := range s.Lhs {
			w.eval(l, e)
		}
		for _, r := range s.Rhs {
			w.eval(r, e)
		}
		return
	}
	cells := make([]*cell, len(s.Rhs))
	for i, r := range s.Rhs {
		cells[i] = w.eval(r, e)
	}
	for i, l := range s.Lhs {
		w.bindLHS(l, cells[i], s, e)
	}
}

// bindLHS applies one assignment target. A plain identifier rebinds the
// variable; any other target is a store, which escapes a tracked RHS.
func (w *ownWalk) bindLHS(l ast.Expr, c *cell, at ast.Stmt, e *env) {
	if id, ok := ast.Unparen(l).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		var v *types.Var
		if def, ok := w.pkg.Info.Defs[id].(*types.Var); ok {
			v = def
		} else if use, ok := w.pkg.Info.Uses[id].(*types.Var); ok {
			v = use
		}
		if v == nil {
			return
		}
		if c != nil {
			e.vars[v] = c
		} else {
			delete(e.vars, v)
		}
		return
	}
	w.eval(l, e)
	if c != nil {
		w.escape(c, at, "stored into a field, element, or global", e)
	}
}

func (w *ownWalk) declStmt(s *ast.DeclStmt, e *env) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			w.eval(vs.Values[0], e)
			continue
		}
		for i, name := range vs.Names {
			var c *cell
			if i < len(vs.Values) {
				c = w.eval(vs.Values[i], e)
			}
			if v, ok := w.pkg.Info.Defs[name].(*types.Var); ok && c != nil {
				e.vars[v] = c
			}
		}
	}
}

func (w *ownWalk) deferStmt(s *ast.DeferStmt, e *env) {
	call := s.Call
	if callee := calleeFunc(w.pkg, call); callee != nil {
		if spec, ok := consumeSpecs[keyFor(callee)]; ok && (spec.root || w.oa.decls[callee] == nil) {
			if fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				w.eval(fun.X, e)
			}
			cells := make([]*cell, len(call.Args))
			for i, a := range call.Args {
				if intIn(spec.args, i) {
					w.noUse++
					cells[i] = w.eval(a, e)
					w.noUse--
					continue
				}
				cells[i] = w.eval(a, e)
			}
			for _, i := range spec.args {
				if i < len(cells) && cells[i] != nil {
					w.markDeferred(cells[i], call, e)
				}
			}
			return
		}
	}
	w.eval(call.Fun, e)
	for _, a := range call.Args {
		if c := w.eval(a, e); c != nil {
			// A deferred non-release call holding a tracked value is a
			// borrow until exit; harmless for this model.
			_ = c
		}
	}
}

func (w *ownWalk) goStmt(s *ast.GoStmt, e *env) {
	call := s.Call
	w.eval(call.Fun, e) // FuncLit capture checks included
	for _, a := range call.Args {
		if c := w.eval(a, e); c != nil {
			w.escape(c, a, "handed to a goroutine", e)
		}
	}
}

// nilFact recognizes `v == nil` / `v != nil` over a tracked variable.
func (w *ownWalk) nilFact(cond ast.Expr, e *env) (c *cell, nilWhenTrue bool, ok bool) {
	be, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false, false
	}
	operand := func(x ast.Expr) *cell {
		id, isIdent := ast.Unparen(x).(*ast.Ident)
		if !isIdent {
			return nil
		}
		v, isVar := w.pkg.Info.Uses[id].(*types.Var)
		if !isVar {
			return nil
		}
		return e.vars[v]
	}
	isNil := func(x ast.Expr) bool {
		id, isIdent := ast.Unparen(x).(*ast.Ident)
		return isIdent && id.Name == "nil"
	}
	switch {
	case isNil(be.Y):
		c = operand(be.X)
	case isNil(be.X):
		c = operand(be.Y)
	}
	if c == nil {
		return nil, false, false
	}
	return c, be.Op == token.EQL, true
}

func setNil(c *cell, e *env) {
	cs := e.cells[c]
	if cs.st == stLive || cs.st == stMaybe {
		cs.st = stNil
		e.cells[c] = cs
	}
}

func (w *ownWalk) ifStmt(s *ast.IfStmt, e *env) bool {
	if s.Init != nil {
		w.walkStmt(s.Init, e)
	}
	factCell, nilWhenTrue, hasFact := w.nilFact(s.Cond, e)
	w.eval(s.Cond, e)

	thenEnv := e.clone()
	elseEnv := e.clone()
	if hasFact {
		if nilWhenTrue {
			setNil(factCell, thenEnv)
		} else {
			setNil(factCell, elseEnv)
		}
	}
	termThen := w.walkBlock(s.Body, thenEnv)
	termElse := false
	if s.Else != nil {
		termElse = w.walkStmt(s.Else, elseEnv)
	}
	switch {
	case termThen && termElse:
		return true
	case termThen:
		*e = *elseEnv
	case termElse:
		*e = *thenEnv
	default:
		thenEnv.merge(elseEnv)
		*e = *thenEnv
	}
	return false
}

func (w *ownWalk) switchStmt(s *ast.SwitchStmt, e *env) bool {
	if s.Init != nil {
		w.walkStmt(s.Init, e)
	}
	w.eval(s.Tag, e)
	return w.caseClauses(s.Body.List, e, func(cc *ast.CaseClause, ce *env) {
		for _, x := range cc.List {
			w.eval(x, ce)
		}
	})
}

func (w *ownWalk) typeSwitchStmt(s *ast.TypeSwitchStmt, e *env) bool {
	if s.Init != nil {
		w.walkStmt(s.Init, e)
	}
	if s.Assign != nil {
		w.walkStmt(s.Assign, e)
	}
	return w.caseClauses(s.Body.List, e, nil)
}

// caseClauses walks each clause from a snapshot of e and merges the
// non-terminated results (plus the fall-past state when no default
// clause exists).
func (w *ownWalk) caseClauses(list []ast.Stmt, e *env, evalCase func(*ast.CaseClause, *env)) bool {
	var outs []*env
	hasDefault := false
	for _, stmt := range list {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		ce := e.clone()
		if evalCase != nil {
			evalCase(cc, ce)
		}
		if !w.walkStmts(cc.Body, ce) {
			outs = append(outs, ce)
		}
	}
	if !hasDefault {
		outs = append(outs, e.clone())
	}
	if len(outs) == 0 {
		return true
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		merged.merge(o)
	}
	*e = *merged
	return false
}

func (w *ownWalk) selectStmt(s *ast.SelectStmt, e *env) bool {
	var outs []*env
	for _, stmt := range s.Body.List {
		cc, ok := stmt.(*ast.CommClause)
		if !ok {
			continue
		}
		ce := e.clone()
		if cc.Comm != nil {
			w.walkStmt(cc.Comm, ce)
		}
		if !w.walkStmts(cc.Body, ce) {
			outs = append(outs, ce)
		}
	}
	if len(outs) == 0 {
		return true
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		merged.merge(o)
	}
	*e = *merged
	return false
}

// forStmt approximates a loop by one body pass merged with the zero-pass
// state: a release inside the body degrades to "some paths".
func (w *ownWalk) forStmt(s *ast.ForStmt, e *env) {
	if s.Init != nil {
		w.walkStmt(s.Init, e)
	}
	w.eval(s.Cond, e)
	body := e.clone()
	if !w.walkBlock(s.Body, body) {
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
		e.merge(body)
	}
}

func (w *ownWalk) rangeStmt(s *ast.RangeStmt, e *env) {
	w.eval(s.X, e)
	body := e.clone()
	if !w.walkBlock(s.Body, body) {
		e.merge(body)
	}
}
