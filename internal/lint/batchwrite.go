package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BatchWrite holds the batch-write rule (see package batch): a batch's
// columns and selection vector may be shared zero-copy with table storage
// and with every downstream operator, so only the batch package may write
// through a Batch. Everywhere else a filter narrows with a fresh selection
// vector and a projection writes into a new batch; a write through
// batch-reachable state (b.Sel = …, b.Cols[c][i] = …, &b.Cols[c]) would
// rewrite rows under a concurrent query sharing the same storage view, or
// under a retried attempt replaying the same input. The same write
// laundered through a local view (cols := b.Cols; cols[0][i] = x) is
// reported too. The view check is flow-insensitive: a local bound from a
// view once is a view everywhere in its scope.
var BatchWrite = &Analyzer{
	Name: "batchwrite",
	Doc: "no writes through a batch.Batch outside the batch package, directly\n" +
		"(b.Sel = …, b.Cols[c][i] = …, &b.Cols[c]) or through a local view of\n" +
		"its columns or selection vector (assignment, ++/--, append, copy)",
	Run: runBatchWrite,
}

// batchPkgSuffix identifies the owning package by import path, so the rule
// exempts it (and applies to every other package in the module).
const batchPkgSuffix = "internal/batch"

func runBatchWrite(p *Pass) error {
	if strings.HasSuffix(p.Pkg.Path(), batchPkgSuffix) {
		return nil
	}
	// views holds the locals bound from batch storage. ast.Inspect visits in
	// source order, so a view bound from a view (c0 := cols[0]) is seen
	// after the one it derives from.
	views := map[*types.Var]bool{}
	isView := func(e ast.Expr) bool {
		if !isSlice(exprType(p, e)) {
			return false
		}
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				v, _ := p.TypesInfo.Uses[x].(*types.Var)
				return views[v]
			case *ast.SelectorExpr:
				return (x.Sel.Name == "Cols" || x.Sel.Name == "Sel") && isBatchType(exprType(p, x.X))
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			default:
				return false
			}
		}
	}
	// bind marks a local a view when view says it is bound from one.
	bind := func(id ast.Expr, view bool) {
		if id, ok := id.(*ast.Ident); ok && view {
			if v, ok := p.TypesInfo.ObjectOf(id).(*types.Var); ok && isSlice(v.Type()) {
				views[v] = true
			}
		}
	}
	// writeThrough reports a write to an element of a view.
	writeThrough := func(at ast.Node, target ast.Expr) {
		target, indexed := ast.Unparen(target), false
		for ix, ok := target.(*ast.IndexExpr); ok; ix, ok = target.(*ast.IndexExpr) {
			target, indexed = ast.Unparen(ix.X), true
		}
		if id, ok := target.(*ast.Ident); ok && indexed {
			if v, _ := p.TypesInfo.Uses[id].(*types.Var); views[v] {
				p.Report(at, "write through %s mutates pooled batch storage via a zero-copy view; copy the column or write into a fresh batch", id.Name)
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					checkDirectWrite(p, n, lhs)
					writeThrough(n, lhs)
					if len(n.Rhs) == len(n.Lhs) {
						bind(lhs, isView(n.Rhs[i]))
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						bind(name, isView(n.Values[i]))
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					bind(n.Value, isView(n.X)) // a column of a view of columns
				}
			case *ast.IncDecStmt:
				checkDirectWrite(p, n, n.X)
				writeThrough(n, n.X)
			case *ast.UnaryExpr:
				// &b.Cols[c] escapes a mutable reference to shared state;
				// taking the address of batch internals counts as a write.
				if n.Op == token.AND {
					checkDirectWrite(p, n, n.X)
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
					if b, ok := p.TypesInfo.Uses[id].(*types.Builtin); ok && (b.Name() == "append" || b.Name() == "copy") && isView(n.Args[0]) {
						p.Report(n, "%s through %s mutates pooled batch storage via a zero-copy view; copy the column or write into a fresh batch", b.Name(), exprString(n.Args[0]))
					}
				}
			}
			return true
		})
	}
	return nil
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

// isSlice reports whether t is a slice type.
func isSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
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
