package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"pref/internal/lint/cfg"
)

// BatchLifetime is the interprocedural ownership/borrow typestate analyzer
// over pooled batch.Batch values. Every function gets an ownership contract
// (batchsummary.go: intrinsic, marker, or bottom-up computed over the call
// graph), and each function body is then checked flow-sensitively against
// the contracts of its callees: a pooled batch moves acquired → in-flight →
// released, and the analyzer reports paths that use it after release,
// release it twice, leak it at return or falloff, let it escape into
// long-lived state, or write through a zero-copy view of its storage.
//
// It also owns the batch-write rule (see package batch): a batch's columns
// and selection vector may be shared zero-copy with table storage and with
// every downstream operator, so only the batch package may write through a
// Batch. Everywhere else a filter narrows with a fresh selection vector and
// a projection writes into a new batch; an assignment through
// batch-reachable state (b.Sel = …, b.Cols[c][i] = …, &b.Cols[c]) would
// rewrite rows under a concurrent query sharing the same storage view, or
// under a retried attempt replaying the same input.
var BatchLifetime = &Analyzer{
	Name: "batchlifetime",
	Doc: "batch ownership typestate: pooled batches must be released exactly once\n" +
		"on every path, never used after release, never escape into long-lived\n" +
		"state while owned, and never be written through, directly or via\n" +
		"zero-copy views, outside the batch package; ownership transfers follow\n" +
		"interprocedural summaries (lint:batch-owner and lint:batch-borrow\n" +
		"declare contracts the body is checked against)",
	Run: runBatchLifetime,
}

// batchPkgSuffix identifies the owning package by import path, so the rules
// exempt it (and apply to every other package in the module).
const batchPkgSuffix = "internal/batch"

// Typestate bits per tracked variable. A variable may carry several on a
// merged path; checks that would misfire on a may-state (use-after-release,
// double release) require stReleased with no live bit (stOwned, stView)
// alongside it — released on every path, not merely some.
const (
	stOwned    uint8 = 1 << iota // holds a pooled batch this function must release
	stView                       // borrows storage owned elsewhere
	stReleased                   // released; the value is dead
	// stDischarged: the release obligation was (possibly) handed off from
	// this point on — a consuming callee took an expression rooted here, a
	// deferred release was registered, or a closure that can release it was
	// created. Unlike stReleased the value stays usable; the bit only
	// suppresses the leak check, and because it flows forward an error
	// return *before* the handoff still reports the leak.
	stDischarged
)

type stateMap map[*types.Var]uint8

func cloneState(s stateMap) stateMap {
	out := make(stateMap, len(s))
	for v, st := range s {
		out[v] = st
	}
	return out
}

// mergeState unions o into s, reporting whether s changed.
func mergeState(s, o stateMap) bool {
	changed := false
	for v, st := range o {
		if s[v]|st != s[v] {
			s[v] |= st
			changed = true
		}
	}
	return changed
}

func runBatchLifetime(p *Pass) error {
	// The batch package is the trusted base layer: its intrinsics define the
	// contracts and it owns the arrays it hands out.
	if strings.HasSuffix(p.Pkg.Path(), batchPkgSuffix) {
		return nil
	}
	// A package can write through a batch a callee handed it without
	// importing batch itself, so direct writes are checked everywhere.
	checkDirectWrites(p)
	// The typestate tracks batch-typed variables, which take the import.
	if !importsBatchPkg(p) {
		return nil
	}
	sums := newBatchSummaries(p)
	eachFuncDecl(p, func(fn *ast.FuncDecl) {
		checkBatchLifetime(p, sums, fn, fn)
		// Function literals are separate scopes: their captures are borrowed
		// views from the enclosing function's perspective.
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkBatchLifetime(p, sums, lit, nil)
			}
			return true
		})
	})
	return nil
}

// lifetimeChecker runs the typestate dataflow over one function body.
type lifetimeChecker struct {
	p    *Pass
	sc   *batchScope
	g    *cfg.Graph
	fn   ast.Node      // *ast.FuncDecl or *ast.FuncLit
	decl *ast.FuncDecl // nil for literals
	// ownerMarked: the declaration carries lint:batch-owner — storing an
	// owned batch into long-lived state is then the declared ownership
	// transfer, not an escape.
	ownerMarked bool

	// useDefs records, per identifier use, the reaching definitions —
	// the paired-error suppression reads them at return sites.
	useDefs map[*ast.Ident][]*cfg.Def
	// skip marks identifiers already handled structurally (definition
	// sites, consumed arguments) so the generic use check passes them by.
	skip map[*ast.Ident]bool
}

func checkBatchLifetime(p *Pass, sums *batchSummaries, fn ast.Node, decl *ast.FuncDecl) {
	sc := newBatchScope(p, sums.summaryFor)
	sc.collect(fn, true)

	// Parameters (receiver included) are tracked even when never mentioned:
	// an owner-marked function leaks a batch it ignores.
	var params []*types.Var
	addParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := p.TypesInfo.Defs[name].(*types.Var); ok && isTrackedBatch(v.Type()) {
					params = append(params, v)
				}
			}
		}
	}
	switch d := fn.(type) {
	case *ast.FuncDecl:
		addParams(d.Recv)
		addParams(d.Type.Params)
	case *ast.FuncLit:
		addParams(d.Type.Params)
	}
	if len(sc.tracked) == 0 && len(sc.derived) == 0 && len(params) == 0 {
		return
	}

	g := cfg.New("", fn)
	r := g.ReachingDefs(p.TypesInfo, decl)
	c := &lifetimeChecker{
		p: p, sc: sc, g: g, fn: fn, decl: decl,
		ownerMarked: decl != nil && hasFuncMarker(decl, batchOwnerMarker),
		useDefs:     map[*ast.Ident][]*cfg.Def{},
		skip:        map[*ast.Ident]bool{},
	}
	r.ForEachUse(func(id *ast.Ident, v *types.Var, defs []*cfg.Def) {
		c.useDefs[id] = defs
	})

	// Entry state: everything starts as a borrowed view; owner-marked
	// declarations own their tracked parameters and must dispose of them.
	seed := stateMap{}
	for v := range sc.tracked {
		seed[v] = stView
	}
	for _, v := range params {
		if c.ownerMarked {
			seed[v] = stOwned
		} else {
			seed[v] = stView
		}
	}

	// Forward fixpoint over the reachable blocks, then a reporting replay
	// against the stable block-entry states.
	blocks := g.Reachable()
	in := map[*cfg.Block]stateMap{g.Entry: seed}
	for _, b := range blocks {
		if in[b] == nil {
			in[b] = stateMap{}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			cur := cloneState(in[b])
			c.walkBlock(b, cur, false)
			for _, s := range b.Succs {
				if in[s] != nil && mergeState(in[s], cur) {
					changed = true
				}
			}
		}
	}
	for _, b := range blocks {
		c.walkBlock(b, cloneState(in[b]), true)
	}
}

// walkBlock replays one block's nodes against cur, mutating it; in report
// mode it emits diagnostics (the states are final then).
func (c *lifetimeChecker) walkBlock(b *cfg.Block, cur stateMap, report bool) {
	for _, n := range b.Nodes {
		c.visit(n, cur, report)
		if ret, ok := n.(*ast.ReturnStmt); ok && report {
			c.leakCheck(ret, c.returnedRoots(ret), cur, "at return")
		}
	}
	if report && c.fallsOff(b) {
		at := c.fn
		if len(b.Nodes) > 0 {
			at = b.Nodes[len(b.Nodes)-1]
		}
		c.leakCheck(at, varset{}, cur, "at function exit")
	}
}

// visit dispatches the events of one block node in pre-order, mirroring
// the replay order of Reach.ForEachUse.
func (c *lifetimeChecker) visit(n ast.Node, cur stateMap, report bool) {
	cfg.VisitExprs(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt:
			// The deferred call runs at exit: it discharges obligations but
			// does not kill the value for the code that follows.
			c.handleCall(m.Call, cur, report, true)
			return false
		case *ast.GoStmt:
			c.apply(m, cur, report, false)
			return false
		case *ast.CallExpr:
			c.handleCall(m, cur, report, false)
			return true
		case *ast.AssignStmt, *ast.SendStmt:
			c.apply(m, cur, report, false)
			return true
		case *ast.ValueSpec:
			c.handleValueSpec(m, cur)
			return true
		case *ast.RangeStmt:
			c.handleRange(m, cur)
			return true
		case *ast.IncDecStmt:
			if report {
				c.checkAliasWrite(m.X, m)
			}
			return true
		case *ast.FuncLit:
			// A closure holding a batch may be the one that releases it;
			// from its creation point on the obligation may be handed off.
			// The literal's own body is checked separately.
			c.discharge(cur, c.sc.capturedTracked(m))
			return true
		case *ast.Ident:
			c.checkUse(m, cur, report)
		}
		return true
	})
}

// discharge marks every root (and everything it may contain) as
// possibly-handed-off from this point forward.
func (c *lifetimeChecker) discharge(cur stateMap, roots varset) {
	for v := range c.sc.closure(roots) {
		cur[v] |= stDischarged
	}
}

// handleCall checks the two call shapes only the typestate cares about (an
// append into a view, a callback that may release its companions), then
// applies the call's summary effects to the current state.
func (c *lifetimeChecker) handleCall(call *ast.CallExpr, cur stateMap, report, isDefer bool) {
	if isBuiltinAppend(c.p, call) && report && len(call.Args) > 0 {
		c.checkAliasWrite(call.Args[0], call)
	}
	// A call taking both a tracked value and a function literal (the
	// forEachPart shape) may release the value inside the callback even
	// when its own summary says borrow — discharge the companions.
	hasLitArg := false
	for _, a := range call.Args {
		if _, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			hasLitArg = true
		}
	}
	if hasLitArg {
		for _, a := range call.Args {
			if _, ok := ast.Unparen(a).(*ast.FuncLit); !ok {
				c.discharge(cur, c.sc.rootVars(a))
			}
		}
	}
	c.apply(call, cur, report, isDefer)
}

// apply replays one node's ownership events (batchScope.events) against
// cur, in source order.
func (c *lifetimeChecker) apply(n ast.Node, cur stateMap, report, isDefer bool) {
	for _, ev := range c.sc.events(n) {
		switch ev.kind {
		case evBind:
			c.bind(ev.lhs.(*ast.Ident), ev.expr, ev.pos, cur)
		case evStore:
			if report {
				c.checkAliasWrite(ev.lhs, ev.at)
			}
		case evConsume:
			c.consumeArg(ev, cur, report, isDefer)
		case evEscape:
			c.escapeRoots(ev.roots, ev.at, cur, report, ev.how)
		}
	}
}

// consumeArg transfers ownership of one consumed argument to the callee.
// A plain identifier dies (flow-sensitively); a compound expression
// (bs[i], w.Finish()) discharges its roots without killing a variable. A
// deferred consume only discharges: the value stays live until exit.
func (c *lifetimeChecker) consumeArg(ev batchEvent, cur stateMap, report, isDefer bool) {
	if id, ok := ast.Unparen(ev.expr).(*ast.Ident); ok {
		if v := c.sc.trackedVar(id); v != nil {
			c.skip[id] = true
			if isDefer {
				c.discharge(cur, varset{v: true})
				return
			}
			if report && cur[v]&stReleased != 0 && cur[v]&(stOwned|stView) == 0 {
				c.p.Report(ev.at, "batch %s is already released on every path to this call (double release)", v.Name())
			}
			// Everything absorbed into v goes down with it; v itself is
			// dead, not merely discharged.
			for o := range c.sc.closure(varset{v: true}) {
				if o != v {
					cur[o] |= stDischarged
				}
			}
			cur[v] = stReleased
			return
		}
	}
	c.discharge(cur, ev.roots)
}

// escapeRoots reports owned batches flowing into state that outlives the
// function, then discharges them (the escape is the handoff; one report
// per site is enough). Escapes of borrowed views are the owner's concern
// elsewhere, and owner-marked functions escape by declared design.
func (c *lifetimeChecker) escapeRoots(roots varset, at ast.Node, cur stateMap, report bool, how string) {
	if report && !c.ownerMarked {
		for _, v := range sortedVars(roots) {
			if cur[v]&stOwned != 0 && cur[v]&(stReleased|stDischarged) == 0 {
				c.p.Report(at, "owned batch %s escapes into long-lived state (%s); release it first or transfer ownership via lint:batch-owner", v.Name(), how)
			}
		}
	}
	c.discharge(cur, roots)
}

// bind starts a tracked variable's state at a definition: owned when rhs is
// a fresh batch from a call (result pos), a borrowed view otherwise.
func (c *lifetimeChecker) bind(id *ast.Ident, rhs ast.Expr, pos int, cur stateMap) {
	v := c.sc.trackedVar(id)
	if v == nil {
		return
	}
	c.skip[id] = true
	if c.sc.isFreshCall(rhs, pos) {
		cur[v] = stOwned
	} else {
		cur[v] = stView
	}
}

func (c *lifetimeChecker) handleValueSpec(vs *ast.ValueSpec, cur stateMap) {
	for i, name := range vs.Names {
		var rhs ast.Expr
		if i < len(vs.Values) {
			rhs = vs.Values[i]
		}
		c.bind(name, rhs, 0, cur)
	}
}

func (c *lifetimeChecker) handleRange(r *ast.RangeStmt, cur stateMap) {
	for _, e := range []ast.Expr{r.Key, r.Value} {
		if id, ok := e.(*ast.Ident); ok {
			c.bind(id, nil, 0, cur) // range elements are views of r.X
		}
	}
}

// checkDirectWrites reports writes whose target reaches its storage through
// a Batch-typed expression, in every function of the package.
func checkDirectWrites(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkDirectWrite(p, n, lhs)
				}
			case *ast.IncDecStmt:
				checkDirectWrite(p, n, n.X)
			case *ast.UnaryExpr:
				// &b.Cols[c] escapes a mutable reference to shared state;
				// taking the address of batch internals counts as a write.
				if n.Op == token.AND {
					checkDirectWrite(p, n, n.X)
				}
			}
			return true
		})
	}
}

// checkDirectWrite reports when the written expression's chain (selectors,
// indexes, derefs) contains a strict sub-expression of type batch.Batch or
// *batch.Batch. Rebinding a batch variable itself (b = …) is fine — that
// writes the variable, not the shared arrays behind it.
func checkDirectWrite(p *Pass, at ast.Node, lhs ast.Expr) {
	for {
		var x ast.Expr
		switch e := lhs.(type) {
		case *ast.SelectorExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			lhs = e.X
			continue
		default:
			return
		}
		if isBatchType(exprType(p, x)) {
			p.Report(at, "write through batch %s violates batch ownership; narrow with a fresh selection vector or write into a new batch (see package batch)",
				exprString(x))
			return
		}
		lhs = x
	}
}

// checkAliasWrite reports a mutation reaching batch storage through a
// derived plain-slice view (cols := b.Cols; cols[0][i] = x): the
// laundering of a direct write (checkDirectWrite) through an intermediate
// variable.
func (c *lifetimeChecker) checkAliasWrite(target ast.Expr, at ast.Node) {
	if v := c.sc.rootDerived(ast.Unparen(target)); v != nil {
		c.p.Report(at, "write through %s mutates pooled batch storage via a zero-copy view; copy the column or write into a fresh batch", v.Name())
	}
}

// checkUse reports a read of a variable that is released on every path.
func (c *lifetimeChecker) checkUse(id *ast.Ident, cur stateMap, report bool) {
	if !report || c.skip[id] {
		return
	}
	v := c.sc.trackedVar(id)
	if v == nil {
		return
	}
	if cur[v]&stReleased != 0 && cur[v]&(stOwned|stView) == 0 {
		c.p.Report(id, "use of batch %s after it was released", v.Name())
	}
}

// returnedRoots is the set of tracked vars whose batches the return hands
// to the caller (ownership transfer). A bare return hands over the named
// results.
func (c *lifetimeChecker) returnedRoots(ret *ast.ReturnStmt) varset {
	roots := varset{}
	if len(ret.Results) == 0 {
		if c.decl != nil && c.decl.Type.Results != nil {
			for _, f := range c.decl.Type.Results.List {
				for _, name := range f.Names {
					if v, ok := c.p.TypesInfo.Defs[name].(*types.Var); ok && isTrackedBatch(v.Type()) {
						roots.add(v)
					}
				}
			}
		}
		return roots
	}
	for _, e := range ret.Results {
		roots.addAll(c.sc.rootVars(e))
	}
	return roots
}

// leakCheck reports owned, unreleased, undischarged batches that neither
// flow out through the return nor ride an error-return pairing.
func (c *lifetimeChecker) leakCheck(at ast.Node, returned varset, cur stateMap, where string) {
	out := c.sc.closure(returned)
	ret, _ := at.(*ast.ReturnStmt)
	for _, v := range sortedVars(cur) {
		st := cur[v]
		if st&stOwned == 0 || st&(stReleased|stDischarged) != 0 || out[v] {
			continue
		}
		if ret != nil && c.pairedWithError(v, ret) {
			continue
		}
		c.p.Report(at, "pooled batch %s is still owned %s: release it or return it to the caller", v.Name(), where)
	}
}

// pairedWithError suppresses the leak report for `b, err := f(); if err !=
// nil { return ..., err }`: when f fails it does not hand over a batch, the
// non-nil b state is an artifact of the may-analysis. The pairing is
// structural — the returned error and the batch were defined by the same
// assignment (any reaching definition of the error qualifies).
func (c *lifetimeChecker) pairedWithError(v *types.Var, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	id, ok := ast.Unparen(ret.Results[len(ret.Results)-1]).(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := c.p.TypesInfo.Uses[id].(*types.Var)
	if !ok || !isErrorType(obj.Type()) {
		return false
	}
	for _, d := range c.useDefs[id] {
		if as, ok := d.Node.(*ast.AssignStmt); ok && assignDefines(c.p, as, v) {
			return true
		}
	}
	return false
}

// assignDefines reports whether the assignment's left side binds v.
func assignDefines(p *Pass, as *ast.AssignStmt, v *types.Var) bool {
	for _, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		if p.TypesInfo.Defs[id] == v || p.TypesInfo.Uses[id] == v {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return t != nil && types.AssignableTo(t, types.Universe.Lookup("error").Type())
}

// fallsOff reports whether the block reaches Exit implicitly (no return,
// no panic) — the frame unwinds with whatever is still owned.
func (c *lifetimeChecker) fallsOff(b *cfg.Block) bool {
	exits := false
	for _, s := range b.Succs {
		if s == c.g.Exit {
			exits = true
		}
	}
	if !exits {
		return false
	}
	if len(b.Nodes) == 0 {
		return true
	}
	switch last := b.Nodes[len(b.Nodes)-1].(type) {
	case *ast.ReturnStmt:
		return false
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return false
			}
		}
	}
	return true
}

// sortedVars returns a var set's or state map's variables in declaration
// order, so diagnostics come out deterministically.
func sortedVars[V any](s map[*types.Var]V) []*types.Var {
	out := make([]*types.Var, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}
