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

// exprType returns the static type of an expression (nil when untyped).
func exprType(p *Pass, e ast.Expr) types.Type {
	tv, ok := p.TypesInfo.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

// deref unwraps pointers and aliases.
func deref(t types.Type) types.Type {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	return t
}
