package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"pref/internal/lint/cfg"
)

// Interprocedural summaries for batchlifetime: every function gets an
// ownership contract (cfg.Summary) describing what it does to each
// batch-typed parameter and what each batch-typed result is. Contracts
// come from three sources, strongest first:
//
//  1. Intrinsics — the batch package's API is the trusted base layer
//     (Release consumes, Project returns fresh pooled batches, WithSel
//     returns an alias, ...). The analyzer never looks inside it.
//
//  2. Markers — a function doc comment may declare its contract:
//
//     // lint:batch-owner <reason>   — tracked params are consumed, tracked
//     //                               results are fresh (caller-owned); the
//     //                               body is checked with params owned
//     // lint:batch-borrow <reason>  — tracked params are only borrowed and
//     //                               tracked results alias existing storage
//
//  3. Bottom-up computation — everything else is derived from the body
//     over the package call graph, with an SCC fixpoint for recursion
//     (cfg.CallGraph.Solve).
const (
	batchOwnerMarker  = "lint:batch-owner"
	batchBorrowMarker = "lint:batch-borrow"
)

// isTrackedBatch reports whether values of type t carry batches whose
// lifetime the analyzer tracks: Batch, *Batch, a batch list ([]*Batch), or
// per-partition batch lists ([][]*Batch — the engine's vparts). Type
// parameters are never tracked (their underlying type is an interface), so
// generic plumbing like forEachPart stays out of the typestate and its
// call sites are handled conservatively instead.
func isTrackedBatch(t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	for i := 0; i < 2; i++ {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			break
		}
		t = types.Unalias(s.Elem())
	}
	return isBatchType(t)
}

// isBatchType reports whether t is batch.Batch or a pointer to it.
func isBatchType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Batch" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), batchPkgSuffix)
}

// varset is a set of local variables (params included).
type varset map[*types.Var]bool

func (s varset) add(v *types.Var) { s[v] = true }

func (s varset) addAll(o varset) {
	for v := range o {
		s[v] = true
	}
}

// batchSummaries resolves ownership contracts for one package.
type batchSummaries struct {
	p      *Pass
	cg     *cfg.CallGraph
	solved map[*types.Func]*cfg.Summary
}

func newBatchSummaries(p *Pass) *batchSummaries {
	bs := &batchSummaries{p: p, cg: cfg.NewCallGraph(p.Files, p.TypesInfo)}
	bs.solved = bs.cg.Solve(bs.compute)
	return bs
}

// summaryFor resolves the contract of a callee: intrinsic, then marker,
// then the solved bottom-up summary. nil means unknown (dynamic call or a
// foreign function without batch intrinsics) — callers treat unknown as
// borrow-everything with aliasing results.
func (bs *batchSummaries) summaryFor(fn *types.Func) *cfg.Summary {
	return bs.resolve(fn, func(fn *types.Func) *cfg.Summary { return bs.solved[fn] })
}

// resolve is summaryFor with the bottom-up summaries read through get.
func (bs *batchSummaries) resolve(fn *types.Func, get func(*types.Func) *cfg.Summary) *cfg.Summary {
	if fn == nil {
		return nil
	}
	if s, ok := batchIntrinsic(fn); ok {
		return s
	}
	if n := bs.cg.Node(fn); n != nil {
		if s, ok := markerSummary(n.Decl, fn); ok {
			return s
		}
	}
	return get(fn)
}

// summarySlots lists the parameter variables a summary indexes: the
// receiver (when present) prepended to the declared parameters.
func summarySlots(sig *types.Signature) []*types.Var {
	var slots []*types.Var
	if r := sig.Recv(); r != nil {
		slots = append(slots, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		slots = append(slots, sig.Params().At(i))
	}
	return slots
}

// newSummary allocates a zeroed summary shaped for sig.
func newSummary(sig *types.Signature) *cfg.Summary {
	return &cfg.Summary{
		Params:  make([]cfg.Effect, len(summarySlots(sig))),
		Results: make([]cfg.ResultKind, sig.Results().Len()),
	}
}

// batchIntrinsic returns the trusted contract of a batch-package function.
// Anything in the package without an explicit entry borrows its arguments
// and returns aliases — safe defaults for accessors (Len, At, Row, ...)
// and the Writer append family, which copy rows out of their sources.
func batchIntrinsic(fn *types.Func) (*cfg.Summary, bool) {
	if fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), batchPkgSuffix) {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, false
	}
	s := newSummary(sig)
	for i := 0; i < sig.Results().Len(); i++ {
		if isTrackedBatch(sig.Results().At(i).Type()) {
			s.Results[i] = cfg.ResAlias
		}
	}
	switch fn.Name() {
	case "Release": // (*Batch).Release: the receiver is dead afterwards
		s.Params[0] = cfg.EffConsume
	case "ReleaseAll": // ReleaseAll(bs): every batch in the list is dead
		s.Params[0] = cfg.EffConsume
	case "WithSel", "Select", "SelectAll", "Filter", "Flatten":
		// Narrowing (of rows or of columns) and compaction return (possible)
		// views over the argument's columns: releasing the argument
		// invalidates them.
		s.Params[0] = cfg.EffReturnsAlias
	case "Project":
		s.Results[0] = cfg.ResFresh // dense pooled output, caller-owned
	case "Finish":
		if sig.Recv() != nil { // (*Writer).Finish hands over pooled batches
			s.Results[0] = cfg.ResFresh
		}
	}
	return s, true
}

// markerSummary builds the declared contract of a marked function.
func markerSummary(decl *ast.FuncDecl, fn *types.Func) (*cfg.Summary, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, false
	}
	switch {
	case hasFuncMarker(decl, batchOwnerMarker):
		s := newSummary(sig)
		for i, v := range summarySlots(sig) {
			if isTrackedBatch(v.Type()) {
				s.Params[i] = cfg.EffConsume
			}
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if isTrackedBatch(sig.Results().At(i).Type()) {
				s.Results[i] = cfg.ResFresh
			}
		}
		return s, true
	case hasFuncMarker(decl, batchBorrowMarker):
		s := newSummary(sig)
		for i := 0; i < sig.Results().Len(); i++ {
			if isTrackedBatch(sig.Results().At(i).Type()) {
				s.Results[i] = cfg.ResAlias
			}
		}
		return s, true
	}
	return nil, false
}

// hasTrackedSignature reports whether any param/recv/result is tracked —
// functions without one have the all-zero contract and skip the body walk.
func hasTrackedSignature(sig *types.Signature) bool {
	for _, v := range summarySlots(sig) {
		if isTrackedBatch(v.Type()) {
			return true
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isTrackedBatch(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// compute derives one function's summary from its body, reading callee
// contracts through get (nil for not-yet-solved SCC members). It is
// monotone: effects only accumulate and result kinds only widen, so
// Solve's fixpoint terminates.
func (bs *batchSummaries) compute(n *cfg.FuncNode, get func(*types.Func) *cfg.Summary) *cfg.Summary {
	sig, ok := n.Fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if s, ok := markerSummary(n.Decl, n.Fn); ok {
		return s
	}
	s := newSummary(sig)
	if !hasTrackedSignature(sig) {
		return s
	}

	sc := newBatchScope(bs.p, func(fn *types.Func) *cfg.Summary { return bs.resolve(fn, get) })
	// The whole declaration, closures included: a closure's release or
	// escape of a parameter is the function's effect too.
	sc.collect(n.Decl, false)

	slots := summarySlots(sig)
	slotIdx := map[*types.Var]int{}
	for i, v := range slots {
		if isTrackedBatch(v.Type()) {
			slotIdx[v] = i
		}
	}
	mark := func(roots varset, eff cfg.Effect) {
		for v := range sc.closure(roots) {
			if i, ok := slotIdx[v]; ok {
				s.Params[i] |= eff
			}
		}
	}
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		for _, ev := range sc.events(m) {
			switch ev.kind {
			case evConsume:
				mark(ev.roots, cfg.EffConsume)
			case evEscape:
				mark(ev.roots, cfg.EffEscape)
			}
		}
		return true
	})

	// Result kinds from the function's own returns (closure returns belong
	// to the closure). Bare returns classify through the named result vars.
	results := sig.Results()
	var named []*types.Var
	for i := 0; i < results.Len(); i++ {
		named = append(named, results.At(i))
	}
	classify := func(e ast.Expr, pos int) {
		if pos >= len(s.Results) || !isTrackedBatch(results.At(pos).Type()) {
			return
		}
		s.Results[pos] = s.Results[pos].Merge(sc.classifyValue(e, pos, slotIdx, func(i int) {
			s.Params[i] |= cfg.EffReturnsAlias
		}))
	}
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := m.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 0 {
			for i, v := range named {
				if v.Name() != "" && isTrackedBatch(v.Type()) {
					s.Results[i] = s.Results[i].Merge(cfg.ResAlias)
				}
			}
			return true
		}
		if len(ret.Results) == 1 && results.Len() > 1 {
			// return f() forwarding multiple results.
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				for i := 0; i < results.Len(); i++ {
					classify(call, i)
				}
				return true
			}
		}
		for i, e := range ret.Results {
			classify(e, i)
		}
		return true
	})
	return s
}

// String renders every computed (non-marker, non-intrinsic) summary with a
// tracked signature, sorted by name — the golden dump of the
// interprocedural layer.
func (bs *batchSummaries) String() string {
	type entry struct{ name, sum string }
	var entries []entry
	for _, n := range bs.cg.Nodes {
		sig, ok := n.Fn.Type().(*types.Signature)
		if !ok || !hasTrackedSignature(sig) {
			continue
		}
		name := n.Fn.Name()
		if r := sig.Recv(); r != nil {
			name = "(" + types.TypeString(r.Type(), types.RelativeTo(bs.p.Pkg)) + ")." + name
		}
		entries = append(entries, entry{name, bs.summaryFor(n.Fn).String()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	var sb strings.Builder
	for _, e := range entries {
		sb.WriteString(e.name)
		sb.WriteString(": ")
		sb.WriteString(e.sum)
		sb.WriteString("\n")
	}
	return sb.String()
}
