package lint

import (
	"go/ast"
	"go/types"
)

// usedPkg resolves an identifier to the package it names (import alias or
// plain import name), or nil when it is not a package reference. Shadowing
// a package name with a local variable therefore defeats nothing: the
// resolution is by object, not by spelling.
func usedPkg(p *Pass, id *ast.Ident) *types.Package {
	pn, ok := p.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	return pn.Imported()
}

// calleePkgFunc resolves a call of the form pkgname.Func(...) to the
// imported package path and function name ("", "" otherwise).
func calleePkgFunc(p *Pass, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pkg := usedPkg(p, id)
	if pkg == nil {
		return "", ""
	}
	return pkg.Path(), sel.Sel.Name
}

// fieldObj resolves a selector expression to the struct field it denotes
// (including fields promoted through embedding), or nil when the selector
// is not a field access.
func fieldObj(p *Pass, sel *ast.SelectorExpr) *types.Var {
	if s, ok := p.TypesInfo.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	// Qualified references (pkg.X) land in Uses, not Selections.
	if v, ok := p.TypesInfo.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// exprString renders a short expression for diagnostics: identifiers,
// selector chains and simple index chains (bs[0], w.cur); parens and
// derefs are dropped and anything else is elided as "...".
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	}
	return "..."
}

// exprType returns the static type of an expression (nil when untyped).
func exprType(p *Pass, e ast.Expr) types.Type {
	tv, ok := p.TypesInfo.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

// isNamedType reports whether t (after unwrapping pointers and aliases) is
// a defined type with the given package path and name. An empty pkgPath
// matches any package, which fixtures rely on.
func isNamedType(t types.Type, pkgPath, name string) bool {
	t = deref(t)
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name {
		return false
	}
	if pkgPath == "" {
		return true
	}
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// deref unwraps pointers and aliases.
func deref(t types.Type) types.Type {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	return t
}

// rootIdentObj resolves the variable at the root of an expression like
// x, x.f, or (*x).f — the object a join/ownership check should key on.
func rootIdentObj(p *Pass, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return p.TypesInfo.Uses[v]
		case *ast.SelectorExpr:
			// Prefer the field itself: distinct struct fields are distinct
			// synchronization domains.
			if f := fieldObj(p, v); f != nil {
				return f
			}
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
