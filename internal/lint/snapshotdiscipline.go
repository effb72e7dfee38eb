package lint

import (
	"go/ast"
	"go/types"

	"pref/internal/lint/cfg"
)

// SnapshotDiscipline enforces the read-side half of the COW protocol:
// query execution and cluster code observe table state only through a
// pinned DBSnapshot (or the immutable Version it resolves), never through
// the live Partitioned head. The live head (`Partitioned.Parts`, and the
// write-path methods BeginWrite/Publish/ResetToPublished) may change under
// a reader mid-query; the epoch store in publishLocked is only a sound
// release point if readers acquire through the snapshot. The single pin
// point that legitimately falls back to the live head declares
// "// lint:snapshot-boundary <reason>". Aliases are tracked through
// reaching definitions: `ps := pt.Parts` is reported where ps is used, so
// the diagnostic lands on the read that actually escapes the snapshot.
var SnapshotDiscipline = &Analyzer{
	Name: "snapshotdiscipline",
	Doc:  "engine/cluster read-side code must reach table state through a pinned DBSnapshot, never the live COW head",
	Run:  runSnapshotDiscipline,
}

// liveWriteMethods are Partitioned's write-path entry points; calling them
// from read-side packages bypasses the snapshot protocol entirely.
var liveWriteMethods = map[string]bool{
	"BeginWrite":       true,
	"Publish":          true,
	"ResetToPublished": true,
}

func runSnapshotDiscipline(p *Pass) error {
	switch p.PkgName() {
	case "engine", "cluster":
	default:
		return nil
	}
	eachFuncDecl(p, func(fn *ast.FuncDecl) {
		if hasFuncMarker(fn, snapshotBoundaryMarker) {
			return
		}
		checkSnapshotDiscipline(p, fn)
	})
	return nil
}

func checkSnapshotDiscipline(p *Pass, fn *ast.FuncDecl) {
	// Live-head selectors (`x.Parts` with x a Partitioned) that are the
	// whole RHS of a simple alias assignment get reported at their uses via
	// reaching definitions instead of at the assignment, so the diagnostic
	// points at the read that escapes the snapshot.
	aliasDef := map[ast.Node]*ast.SelectorExpr{} // AssignStmt -> live-head RHS
	aliasVar := map[*types.Var]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		sel := liveHeadSelector(p, as.Rhs[0])
		if sel == nil {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		v := localVarOf(p, id)
		if v == nil {
			return true
		}
		aliasDef[ast.Node(as)] = sel
		aliasVar[v] = true
		return true
	})

	// Direct accesses: every live-head selector or write-path call not
	// consumed by an alias definition above.
	skip := map[*ast.SelectorExpr]bool{}
	for _, sel := range aliasDef {
		skip[sel] = true
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv, name := methodCall(n); recv != nil && liveWriteMethods[name] &&
				isNamedType(exprType(p, recv), "", "Partitioned") {
				p.Report(n, "read-side call to write-path method %s on the live table; mutations go through the bulk-load protocol, reads through a pinned snapshot", name)
			}
		case *ast.SelectorExpr:
			if skip[n] {
				return true
			}
			if sel := liveHeadSelector(p, n); sel == n {
				p.Report(n, "access to the live COW head %s; pin a DBSnapshot and read the published Version instead", exprString(sel))
			}
		}
		return true
	})

	if len(aliasVar) == 0 {
		return
	}
	g := funcGraph(fn)
	r := g.ReachingDefs(p.TypesInfo, fn)
	reported := map[*ast.Ident]bool{}
	r.ForEachUse(func(id *ast.Ident, v *types.Var, defs []*cfg.Def) {
		if !aliasVar[v] || reported[id] {
			return
		}
		for _, d := range defs {
			if sel, ok := aliasDef[d.Node]; ok {
				reported[id] = true
				p.Report(id, "use of %s, aliased from the live COW head %s at %s; pin a DBSnapshot and read the published Version instead",
					v.Name(), exprString(sel), p.Fset.Position(sel.Pos()))
				return
			}
		}
	})
}

// liveHeadSelector reports whether e is (after parens) a selector of the
// Parts field on a Partitioned value — the live COW head.
func liveHeadSelector(p *Pass, e ast.Expr) *ast.SelectorExpr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = pe.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Parts" {
		return nil
	}
	if fieldObj(p, sel) == nil {
		return nil // method value / call, e.g. snap.Parts(tbl)
	}
	if !isNamedType(exprType(p, sel.X), "", "Partitioned") {
		return nil
	}
	return sel
}

// localVarOf resolves an identifier to the local variable it defines or
// uses (nil for globals, fields, and non-variables).
func localVarOf(p *Pass, id *ast.Ident) *types.Var {
	var o types.Object
	if d, ok := p.TypesInfo.Defs[id]; ok {
		o = d
	} else if u, ok := p.TypesInfo.Uses[id]; ok {
		o = u
	}
	v, ok := o.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}
