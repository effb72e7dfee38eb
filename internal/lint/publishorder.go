package lint

import (
	"go/ast"
	"go/types"

	"pref/internal/lint/cfg"
)

// PublishOrder statically catches the race class PR 6's chaos soak caught
// at runtime: the atomic epoch store in table.Partitioned.publishLocked is
// the release point that makes a new Version visible to concurrent
// readers, so every piece of bookkeeping that readers may observe — the
// shared[] COW flags, the Version's own fields — must complete BEFORE the
// store. The analyzer finds each atomic publish store (`x.f.Store(v)` on a
// sync/atomic-typed field; the module declares no atomics any other way)
// and then walks the CFG forward: any later mutation, on any path, of
// state rooted at the published receiver or at the stored value is a
// publish-ordering violation. Functions that legitimately restructure
// state around a store declare "// lint:publish-boundary <reason>".
var PublishOrder = &Analyzer{
	Name: "publishorder",
	Doc:  "no mutation of version-visible state may follow the atomic epoch store; bookkeeping must complete before the publish",
	Run:  runPublishOrder,
}

// publishorder's typestate machine: state 0 = pre-publish, 1 = published.
const (
	poEvStore = iota
	poEvMutate
)

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

// publishStore describes one atomic publish site in a function.
type publishStore struct {
	call *ast.CallExpr
	base types.Object // receiver whose state the store publishes
	val  types.Object // root object of the stored value (nil if none)
}

func checkPublishOrder(p *Pass, fn *ast.FuncDecl) {
	stores := map[*ast.CallExpr]*publishStore{}
	watched := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if st := asPublishStore(p, call); st != nil {
			stores[call] = st
			if st.base != nil {
				watched[st.base] = true
			}
			if st.val != nil {
				watched[st.val] = true
			}
		}
		return true
	})
	if len(stores) == 0 {
		return
	}

	g := funcGraph(fn)
	m := &cfg.Machine{
		Init: 0,
		Classify: func(n ast.Node) (int, bool) {
			switch n := n.(type) {
			case *ast.CallExpr:
				if _, ok := stores[n]; ok {
					return poEvStore, true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if o := recvBase(p, lhs); o != nil && watched[o] && !isPlainIdent(lhs) {
						return poEvMutate, true
					}
				}
			case *ast.IncDecStmt:
				if o := recvBase(p, n.X); o != nil && watched[o] && !isPlainIdent(n.X) {
					return poEvMutate, true
				}
			}
			return 0, false
		},
		Step: func(state, event int) int {
			if event == poEvStore {
				return 1
			}
			return state
		},
	}
	res := m.Run(g)

	// One store position for the message (the first in source order).
	var firstStore *ast.CallExpr
	for call := range stores {
		if firstStore == nil || call.Pos() < firstStore.Pos() {
			firstStore = call
		}
	}
	for n, states := range res.Events {
		if !states.Has(1) {
			continue
		}
		switch n.(type) {
		case *ast.AssignStmt, *ast.IncDecStmt:
			p.Report(n, "mutation of version-visible state after the atomic epoch publish at %s; readers may already observe the new version — complete all bookkeeping before the Store",
				p.Fset.Position(firstStore.Pos()))
		case *ast.CallExpr:
			if n != firstStore {
				p.Report(n, "second atomic publish after the one at %s in the same function; publish exactly once per epoch",
					p.Fset.Position(firstStore.Pos()))
			}
		}
	}
}

// asPublishStore recognizes an atomic publish — base...field.Store(v) /
// .Swap(v) / .CompareAndSwap(_, v) on a sync/atomic-typed field — and
// resolves the published base and stored value.
func asPublishStore(p *Pass, call *ast.CallExpr) *publishStore {
	recv, name := methodCall(call)
	switch name {
	case "Store", "Swap", "CompareAndSwap":
		if typeFromPkg(exprType(p, recv), "sync/atomic") {
			st := &publishStore{call: call, base: recvBase(p, recv)}
			if len(call.Args) > 0 {
				st.val = recvBase(p, call.Args[len(call.Args)-1])
			}
			return st
		}
	}
	return nil
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
