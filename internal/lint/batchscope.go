package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"pref/internal/lint/cfg"
)

// batchScope is the flow-insensitive half of batchlifetime's analysis of
// one function body: which local variables may alias which others
// (origins), which were produced fresh, and which plain slices are views
// into batch storage (derived). It also owns the one event classifier
// (events) that the flow-sensitive typestate pass (batchlifetime.go) and
// the summary computation (batchsummary.go) both read. Aliasing is
// deliberately may-analysis over assignments: it is used to *discharge*
// obligations (returning an alias hands the underlying batches to the
// caller), so over-approximating keeps false positives out at the cost of
// missing some leaks.
type batchScope struct {
	p      *Pass
	lookup func(*types.Func) *cfg.Summary

	origins map[*types.Var]varset // v may alias/contain these vars
	fresh   varset                // some def is a fresh (caller-owned) batch
	tracked varset                // every tracked var mentioned
	derived varset                // plain slices aliasing batch storage

	sliceDefs []sliceDef // slice-kind assignments, for the derived fixpoint
}

// eventKind classifies one batchEvent.
type eventKind uint8

const (
	evBind    eventKind = iota // lhs, an identifier, is bound to result pos of expr
	evStore                    // lhs, an element or pointee, is overwritten with expr
	evConsume                  // a consuming callee takes expr
	evEscape                   // roots flow into state that outlives the frame
)

// batchEvent is one ownership event of a call, assignment, go or send.
type batchEvent struct {
	kind  eventKind
	at    ast.Node
	lhs   ast.Expr // evBind, evStore
	expr  ast.Expr // evBind, evStore: the value; evConsume: the argument
	pos   int      // evBind: the callee result position of a multi-value call
	roots varset   // evConsume, evEscape
	how   string   // evEscape: where the value goes, for diagnostics
}

// events classifies one node into its ownership events, in source order.
// The summary pass turns consume and escape events into parameter effects
// and bind and store events into alias origins; the typestate pass replays
// all four against its per-path state.
func (sc *batchScope) events(n ast.Node) []batchEvent {
	var out []batchEvent
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			rhs, pos := n.Rhs[0], i
			if len(n.Lhs) == len(n.Rhs) {
				rhs, pos = n.Rhs[i], 0
			}
			switch l := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				out = append(out, batchEvent{kind: evBind, at: n, lhs: l, expr: rhs, pos: pos})
			case *ast.IndexExpr, *ast.StarExpr:
				out = append(out, batchEvent{kind: evStore, at: n, lhs: l.(ast.Expr), expr: rhs})
			case *ast.SelectorExpr:
				if fieldObj(sc.p, l) != nil {
					out = append(out, batchEvent{kind: evEscape, at: n, roots: sc.rootVars(rhs), how: "stored into a struct field"})
				}
			}
		}
	case *ast.CallExpr:
		sum := sc.lookup(cfg.StaticCallee(sc.p.TypesInfo, n))
		if sum == nil {
			return nil
		}
		for _, slot := range sc.callArgSlots(n) {
			eff := sum.Param(slot.idx)
			if eff.Has(cfg.EffConsume) {
				out = append(out, batchEvent{kind: evConsume, at: n, expr: slot.expr, roots: sc.rootVars(slot.expr)})
			}
			if eff.Has(cfg.EffEscape) {
				out = append(out, batchEvent{kind: evEscape, at: n, roots: sc.rootVars(slot.expr), how: "passed to a callee that stores it beyond the call"})
			}
		}
	case *ast.GoStmt:
		roots := varset{}
		for _, a := range n.Call.Args {
			roots.addAll(sc.rootVars(a))
		}
		if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
			roots.addAll(sc.capturedTracked(lit))
		}
		out = append(out, batchEvent{kind: evEscape, at: n, roots: roots, how: "handed to a goroutine that may outlive this frame"})
	case *ast.SendStmt:
		out = append(out, batchEvent{kind: evEscape, at: n, roots: sc.rootVars(n.Value), how: "sent on a channel"})
	}
	return out
}

type sliceDef struct {
	v   *types.Var
	rhs ast.Expr
}

func newBatchScope(p *Pass, lookup func(*types.Func) *cfg.Summary) *batchScope {
	return &batchScope{
		p: p, lookup: lookup,
		origins: map[*types.Var]varset{},
		fresh:   varset{}, tracked: varset{}, derived: varset{},
	}
}

// trackedVar resolves an identifier to the tracked variable it names.
func (sc *batchScope) trackedVar(id *ast.Ident) *types.Var {
	obj := sc.p.TypesInfo.Uses[id]
	if obj == nil {
		obj = sc.p.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || !isTrackedBatch(v.Type()) {
		return nil
	}
	return v
}

// collect walks one function body (a *ast.FuncDecl or *ast.FuncLit)
// accumulating alias edges. With skipFuncLits the walk stays inside
// the lexical function (nested literals are separate scopes for the
// typestate pass); without it, closures count toward the enclosing
// function (the summary view: what can calling this function do).
func (sc *batchScope) collect(fn ast.Node, skipFuncLits bool) {
	var body *ast.BlockStmt
	switch d := fn.(type) {
	case *ast.FuncDecl:
		body = d.Body
	case *ast.FuncLit:
		body = d.Body
	}
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return !skipFuncLits
		case *ast.Ident:
			if v := sc.trackedVar(n); v != nil {
				sc.tracked.add(v)
			}
		case *ast.AssignStmt:
			for _, ev := range sc.events(n) {
				switch ev.kind {
				case evBind:
					sc.collectDef(ev.lhs, ev.expr, ev.pos)
				case evStore:
					// Absorb: writing a tracked value into a tracked container
					// (out[p] = bs) moves the obligation into the container.
					for d := range sc.rootVars(ev.lhs) {
						if sc.origins[d] == nil {
							sc.origins[d] = varset{}
						}
						sc.origins[d].addAll(sc.rootVars(ev.expr))
					}
				}
			}
		case *ast.RangeStmt:
			sc.collectRange(n)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					sc.collectDef(name, n.Values[i], 0)
				}
			}
		}
		return true
	})
	// Derived-slice fixpoint: storage views propagate through plain slice
	// assignment chains (c := b.Cols; d := c; d[0][i] = ...).
	for changed := true; changed; {
		changed = false
		for _, d := range sc.sliceDefs {
			if !sc.derived[d.v] && sc.derivesStorage(d.rhs) {
				sc.derived.add(d.v)
				changed = true
			}
		}
	}
}

// collectDef records one definition of a plain identifier: alias origins
// and freshness for tracked vars, storage derivation for plain slices.
// pos is the callee result position when rhs is a multi-value call.
func (sc *batchScope) collectDef(lhs ast.Expr, rhs ast.Expr, pos int) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if v := sc.trackedVar(id); v != nil {
		sc.tracked.add(v)
		if sc.origins[v] == nil {
			sc.origins[v] = varset{}
		}
		sc.origins[v].addAll(sc.rootVars(rhs))
		if sc.isFreshCall(rhs, pos) {
			sc.fresh.add(v)
		}
		return
	}
	// Plain storage-kind slices participate only in the derived set.
	obj := sc.p.TypesInfo.Uses[id]
	if obj == nil {
		obj = sc.p.TypesInfo.Defs[id]
	}
	if v, ok := obj.(*types.Var); ok && !v.IsField() && isStorageSlice(v.Type()) {
		sc.sliceDefs = append(sc.sliceDefs, sliceDef{v, rhs})
	}
}

func (sc *batchScope) collectRange(r *ast.RangeStmt) {
	for _, e := range []ast.Expr{r.Key, r.Value} {
		if e == nil {
			continue
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		if v := sc.trackedVar(id); v != nil {
			sc.tracked.add(v)
			if sc.origins[v] == nil {
				sc.origins[v] = varset{}
			}
			sc.origins[v].addAll(sc.rootVars(r.X))
		} else if obj, ok := sc.p.TypesInfo.Defs[id].(*types.Var); ok && isStorageSlice(obj.Type()) {
			sc.sliceDefs = append(sc.sliceDefs, sliceDef{obj, r.X})
		}
	}
}

// argSlot pairs one call argument (or method receiver) with its position
// in the callee's summary.
type argSlot struct {
	expr ast.Expr
	idx  int
}

// callArgSlots maps a call's receiver and arguments onto callee summary
// positions (receiver at 0 when present; variadic args clamp to the final
// parameter).
func (sc *batchScope) callArgSlots(call *ast.CallExpr) []argSlot {
	fn := cfg.StaticCallee(sc.p.TypesInfo, call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	nslots := len(summarySlots(sig))
	if nslots == 0 {
		return nil
	}
	var out []argSlot
	base := 0
	if sig.Recv() != nil {
		base = 1
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if tv, ok := sc.p.TypesInfo.Types[sel.X]; ok && tv.IsType() {
				base = 0 // method expression: receiver is the first argument
			} else {
				out = append(out, argSlot{sel.X, 0})
			}
		}
	}
	for i, a := range call.Args {
		idx := base + i
		if idx >= nslots {
			idx = nslots - 1 // variadic spread shares the final slot
		}
		out = append(out, argSlot{a, idx})
	}
	return out
}

// rootVars returns the tracked variables an expression's value may be
// rooted in (alias or contain) — the unit the discharge and escape logic
// works on. Calls contribute the arguments their callee declares
// returns-alias for (every tracked argument when the callee is unknown),
// plus the captured tracked vars of any function-literal argument: a
// closure's result may hold whatever the closure can see.
func (sc *batchScope) rootVars(e ast.Expr) varset {
	roots := varset{}
	sc.addRoots(roots, e)
	return roots
}

func (sc *batchScope) addRoots(roots varset, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		if v := sc.trackedVar(e); v != nil {
			roots.add(v)
		}
	case *ast.ParenExpr:
		sc.addRoots(roots, e.X)
	case *ast.StarExpr:
		sc.addRoots(roots, e.X)
	case *ast.UnaryExpr:
		sc.addRoots(roots, e.X)
	case *ast.TypeAssertExpr:
		sc.addRoots(roots, e.X)
	case *ast.IndexExpr:
		sc.addRoots(roots, e.X)
	case *ast.IndexListExpr:
		sc.addRoots(roots, e.X)
	case *ast.SliceExpr:
		sc.addRoots(roots, e.X)
	case *ast.SelectorExpr:
		sc.addRoots(roots, e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			sc.addRoots(roots, el)
		}
	case *ast.CallExpr:
		sc.addCallRoots(roots, e)
	}
}

func (sc *batchScope) addCallRoots(roots varset, call *ast.CallExpr) {
	if isBuiltinAppend(sc.p, call) {
		for _, a := range call.Args {
			sc.addRoots(roots, a)
		}
		return
	}
	fn := cfg.StaticCallee(sc.p.TypesInfo, call)
	sum := sc.lookup(fn)
	if sum != nil {
		for _, slot := range sc.callArgSlots(call) {
			if sum.Param(slot.idx).Has(cfg.EffReturnsAlias) {
				sc.addRoots(roots, slot.expr)
			}
		}
	} else {
		// Unknown callee: any tracked argument may flow into the result.
		args := call.Args
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			sc.addRoots(roots, sel.X)
		}
		for _, a := range args {
			if isTrackedBatch(exprType(sc.p, a)) {
				sc.addRoots(roots, a)
			}
		}
	}
	for _, a := range call.Args {
		if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			roots.addAll(sc.capturedTracked(lit))
		}
	}
}

// capturedTracked returns the tracked variables a function literal
// captures from its enclosing scope (declared outside the literal).
func (sc *batchScope) capturedTracked(lit *ast.FuncLit) varset {
	out := varset{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := sc.p.TypesInfo.Uses[id].(*types.Var); ok && !v.IsField() &&
			isTrackedBatch(v.Type()) && (v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			out.add(v)
		}
		return true
	})
	return out
}

// closure expands a root set transitively through the origin edges,
// including the roots themselves.
func (sc *batchScope) closure(roots varset) varset {
	out := varset{}
	var walk func(v *types.Var)
	walk = func(v *types.Var) {
		if out[v] {
			return
		}
		out[v] = true
		for o := range sc.origins[v] {
			walk(o)
		}
	}
	for v := range roots {
		walk(v)
	}
	return out
}

// isFreshCall reports whether rhs is a call whose result at pos is a
// fresh caller-owned batch.
func (sc *batchScope) isFreshCall(rhs ast.Expr, pos int) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return false
	}
	sum := sc.lookup(cfg.StaticCallee(sc.p.TypesInfo, call))
	return sum.Result(pos) == cfg.ResFresh
}

// classifyValue classifies one returned expression for the summary:
// fresh-call results are fresh, anything rooted in a parameter slot is an
// alias (marking the slot returns-alias via markAlias), purely fresh local
// provenance is fresh, everything else aliases conservatively.
func (sc *batchScope) classifyValue(e ast.Expr, pos int, slotIdx map[*types.Var]int, markAlias func(int)) cfg.ResultKind {
	if sc.isFreshCall(e, pos) {
		return cfg.ResFresh
	}
	roots := sc.closure(sc.rootVars(e))
	alias := false
	for v := range roots {
		if i, ok := slotIdx[v]; ok {
			markAlias(i)
			alias = true
		}
	}
	if alias {
		return cfg.ResAlias
	}
	if len(roots) > 0 {
		allFresh := true
		for v := range roots {
			if !sc.fresh[v] {
				allFresh = false
			}
		}
		if allFresh {
			return cfg.ResFresh
		}
	}
	return cfg.ResAlias
}

// derivesStorage reports whether an expression reaches into a batch's
// backing storage: a .Cols/.Sel selector on a batch-typed expression, or
// a chain through an already-derived slice variable.
func (sc *batchScope) derivesStorage(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := sc.p.TypesInfo.Uses[e].(*types.Var); ok {
			return sc.derived[v]
		}
	case *ast.SelectorExpr:
		if (e.Sel.Name == "Cols" || e.Sel.Name == "Sel") && isBatchType(exprType(sc.p, e.X)) {
			return true
		}
		return sc.derivesStorage(e.X)
	case *ast.ParenExpr:
		return sc.derivesStorage(e.X)
	case *ast.StarExpr:
		return sc.derivesStorage(e.X)
	case *ast.IndexExpr:
		return sc.derivesStorage(e.X)
	case *ast.SliceExpr:
		return sc.derivesStorage(e.X)
	}
	return false
}

// rootDerived resolves the derived slice variable at the base of an index
// chain (c[i], cols[0][i]), or nil.
func (sc *batchScope) rootDerived(e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if v, ok := sc.p.TypesInfo.Uses[x].(*types.Var); ok && sc.derived[v] {
				return v
			}
			return nil
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isStorageSlice reports whether t is the shape of batch backing storage:
// a (nested) slice of int64 or int32.
func isStorageSlice(t types.Type) bool {
	t = types.Unalias(t)
	depth := 0
	for depth < 2 {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			break
		}
		t = types.Unalias(s.Elem())
		depth++
	}
	if depth == 0 {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Int64 || b.Kind() == types.Int32)
}

// isBuiltinAppend recognizes the append builtin.
func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// importsBatchPkg reports whether the package under analysis imports the
// batch package at all — everything else cannot mention a tracked type.
func importsBatchPkg(p *Pass) bool {
	for _, im := range p.Pkg.Imports() {
		if strings.HasSuffix(im.Path(), batchPkgSuffix) {
			return true
		}
	}
	return false
}
