package lint

import (
	"go/ast"
	"go/types"

	"pref/internal/lint/cfg"
)

// PublishOrder statically catches the race class PR 6's chaos soak caught
// at runtime: the atomic epoch store in table.Partitioned.publishLocked is
// the release point that makes a new Version visible to concurrent
// readers, so every piece of bookkeeping that readers may observe must
// complete BEFORE the store. The analyzer finds each atomic publish store
// (`x.f.Store(v)` on a sync/atomic-typed field; the module declares no
// atomics any other way) and walks the CFG forward from it: any mutation
// that some path reaches after the store, of state rooted at the published
// receiver or at the stored value, is a publish-ordering violation.
// Functions that legitimately restructure state around a store declare
// "// lint:publish-boundary <reason>".
var PublishOrder = &Analyzer{
	Name: "publishorder",
	Doc:  "no mutation of version-visible state may follow the atomic epoch store; bookkeeping must complete before the publish",
	Run:  runPublishOrder,
}

// publishBoundaryMarker, in a function's doc comment, declares that the
// function may touch version-visible state around an atomic epoch store
// and carries the reason: "// lint:publish-boundary <reason>".
const publishBoundaryMarker = "lint:publish-boundary"

func runPublishOrder(p *Pass) error {
	switch p.PkgName() {
	case "table", "bulkload":
	default:
		return nil
	}
	eachFuncDecl(p, func(fn *ast.FuncDecl) {
		if hasFuncMarker(fn, publishBoundaryMarker) {
			return
		}
		checkPublishOrder(p, fn)
	})
	return nil
}

func checkPublishOrder(p *Pass, fn *ast.FuncDecl) {
	// The stores, and the objects whose state they publish: the receiver
	// base and the stored value's root.
	stores := map[ast.Node]bool{}
	watched := map[types.Object]bool{}
	var firstStore *ast.CallExpr // source order, for the messages
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPublishStore(p, call) {
			return true
		}
		stores[call] = true
		watched[recvBase(p, call.Fun.(*ast.SelectorExpr).X)] = true
		if len(call.Args) > 0 {
			watched[recvBase(p, call.Args[len(call.Args)-1])] = true
		}
		if firstStore == nil || call.Pos() < firstStore.Pos() {
			firstStore = call
		}
		return true
	})
	if len(stores) == 0 {
		return
	}
	mutates := func(lhs ast.Expr) bool {
		o := recvBase(p, lhs)
		return o != nil && watched[o] && !isPlainIdent(lhs)
	}

	// events lists each reachable block's stores and mutations in execution
	// order. Deferred calls and go statements do not run where they are
	// registered, so their bodies hold no events.
	g := cfg.New(fn.Name.Name, fn)
	events := map[*cfg.Block][]ast.Node{}
	for _, b := range g.Reachable() {
		for _, n := range b.Nodes {
			cfg.VisitExprs(n, func(sub ast.Node) bool {
				isEvent := stores[sub]
				switch sub := sub.(type) {
				case *ast.DeferStmt, *ast.GoStmt:
					return false
				case *ast.AssignStmt:
					for _, lhs := range sub.Lhs {
						isEvent = isEvent || mutates(lhs)
					}
				case *ast.IncDecStmt:
					isEvent = mutates(sub.X)
				}
				if isEvent {
					events[b] = append(events[b], sub)
				}
				return true
			})
		}
	}

	// Forward reachability: the rest of a store's block, then every block
	// some path reaches from it (the store's own block again round a loop).
	after := map[ast.Node]bool{}
	var work []*cfg.Block
	for b, evs := range events {
		for i, ev := range evs {
			if stores[ev] {
				for _, later := range evs[i+1:] {
					after[later] = true
				}
				work = append(work, b.Succs...)
				break
			}
		}
	}
	seen := map[*cfg.Block]bool{}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		for _, ev := range events[b] {
			after[ev] = true
		}
		work = append(work, b.Succs...)
	}

	at := p.Fset.Position(firstStore.Pos())
	for n := range after {
		switch {
		case !stores[n]:
			p.Report(n, "mutation of version-visible state after the atomic epoch publish at %s; readers may already observe the new version — complete all bookkeeping before the Store", at)
		case n != ast.Node(firstStore):
			p.Report(n, "second atomic publish after the one at %s in the same function; publish exactly once per epoch", at)
		}
	}
}

// isPublishStore recognizes an atomic publish: base...field.Store(v) /
// .Swap(v) / .CompareAndSwap(_, v) on a field of a sync/atomic type
// (generic instantiations such as atomic.Pointer[T] resolve through their
// origin object).
func isPublishStore(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Store", "Swap", "CompareAndSwap":
		n, ok := deref(exprType(p, sel.X)).(*types.Named)
		return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
	}
	return false
}

// recvBase resolves the leftmost identifier's object under an expression:
// the base whose state a publish store releases (`pt` in pt.pub.Store(v)).
// A base derived through a call has no stable object.
func recvBase(p *Pass, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if o := p.TypesInfo.Uses[v]; o != nil {
				return o
			}
			return p.TypesInfo.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// isPlainIdent reports whether e is a bare identifier (possibly
// parenthesized): rebinding a local that happens to alias the published
// value is not a mutation of shared state.
func isPlainIdent(e ast.Expr) bool {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return true
		case *ast.ParenExpr:
			e = v.X
		default:
			return false
		}
	}
}
