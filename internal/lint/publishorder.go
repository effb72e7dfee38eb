package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PublishOrder statically catches the race class PR 6's chaos soak caught
// at runtime: the atomic epoch store in table.Partitioned.publishLocked is
// the release point that makes a new Version visible to concurrent
// readers, so every piece of bookkeeping that readers may observe must
// complete BEFORE the store. The analyzer finds each atomic publish store
// (`x.f.Store(v)` on a sync/atomic-typed field; the module declares no
// atomics any other way) and holds it to a shape: the store is a top-level
// statement of its function body, the only publish in the function, and
// the function has no goto. In that shape the statements after the store
// in the body are exactly the code that can run after it, so a mutation
// among them of state rooted at the published receiver or at the stored
// value is a publish-ordering violation. A store in any other shape is
// reported outright.
var PublishOrder = &Analyzer{
	Name: "publishorder",
	Doc:  "no mutation of version-visible state may follow the atomic epoch store; bookkeeping must complete before the publish",
	Run:  runPublishOrder,
}

func runPublishOrder(p *Pass) error {
	switch p.PkgName() {
	case "table", "bulkload":
	default:
		return nil
	}
	eachFuncDecl(p, func(fn *ast.FuncDecl) { checkPublishOrder(p, fn) })
	return nil
}

func checkPublishOrder(p *Pass, fn *ast.FuncDecl) {
	// The stores in source order, the objects whose state they publish (the
	// receiver base and the stored value's root), and any goto.
	var stores []*ast.CallExpr
	watched := map[types.Object]bool{}
	hasGoto := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BranchStmt:
			hasGoto = hasGoto || n.Tok == token.GOTO
		case *ast.CallExpr:
			if isPublishStore(p, n) {
				stores = append(stores, n)
				watched[recvBase(p, n.Fun.(*ast.SelectorExpr).X)] = true
				if len(n.Args) > 0 {
					watched[recvBase(p, n.Args[len(n.Args)-1])] = true
				}
			}
		}
		return true
	})
	if len(stores) == 0 {
		return
	}
	at := p.Fset.Position(stores[0].Pos())
	for _, s := range stores[1:] {
		p.Report(s, "second atomic publish after the one at %s in the same function; publish exactly once per epoch", at)
	}

	// top maps each call a body statement makes at its top level (an
	// expression statement, an assignment's right-hand side) to the index
	// of that statement.
	top := map[ast.Expr]int{}
	for i, st := range fn.Body.List {
		switch st := st.(type) {
		case *ast.ExprStmt:
			top[ast.Unparen(st.X)] = i
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				top[ast.Unparen(rhs)] = i
			}
		}
	}
	if _, ok := top[stores[0]]; !ok || hasGoto {
		p.Report(stores[0], "atomic epoch publish must be a top-level statement of a function body without goto, so that the statements after it are all that can run after it")
	}
	if hasGoto {
		return
	}
	mutates := func(lhs ast.Expr) bool {
		o := recvBase(p, lhs)
		return o != nil && watched[o] && !isPlainIdent(lhs)
	}
	// Later stores are reported already; what can still race is the code
	// after the first top-level one. Deferred calls and go statements do
	// not run where they are registered, so their bodies are skipped.
	var rest []ast.Stmt
	for _, s := range stores {
		if i, ok := top[s]; ok {
			rest = fn.Body.List[i+1:]
			break
		}
	}
	for _, st := range rest {
		ast.Inspect(st, func(n ast.Node) bool {
			var lhs []ast.Expr
			switch n := n.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				return false
			case *ast.AssignStmt:
				lhs = n.Lhs
			case *ast.IncDecStmt:
				lhs = []ast.Expr{n.X}
			}
			for _, e := range lhs {
				if mutates(e) {
					p.Report(n, "mutation of version-visible state after the atomic epoch publish at %s; readers may already observe the new version — complete all bookkeeping before the Store", at)
					break
				}
			}
			return true
		})
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
