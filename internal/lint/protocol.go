package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"pref/internal/lint/cfg"
)

// Boundary markers for the protocol analyzers. Each declares, in a
// function's doc comment, that the function legitimately crosses one
// protocol line and carries the reason:
//
//	// lint:publish-boundary <reason>   — may touch version-visible state
//	//                                    around an atomic epoch store
//	//                                    (the publisher itself)
//	// lint:snapshot-boundary <reason>  — read-side code that may touch the
//	//                                    live COW head (the one pin point)
//	// lint:intent-boundary <reason>    — bulk-load machinery below the
//	//                                    plan→intend→apply→publish protocol
//	//                                    (the steps themselves, recovery)
//
// The happensbefore analyzer uses two further markers with arguments:
//
//	// lint:guarded-by <field>...  — on a struct field: plain access to
//	//                               this field is only safe after one of
//	//                               the named sibling guard fields was
//	//                               acquired (atomic Load / mutex Lock)
//	// lint:holds <field>...       — on a function: the caller guarantees
//	//                               the named guards are held throughout
const (
	publishBoundaryMarker  = "lint:publish-boundary"
	snapshotBoundaryMarker = "lint:snapshot-boundary"
	intentBoundaryMarker   = "lint:intent-boundary"
	guardedByMarker        = "lint:guarded-by"
	holdsMarker            = "lint:holds"
)

// hasFuncMarker reports whether the function's doc comment carries the
// marker.
func hasFuncMarker(fn *ast.FuncDecl, marker string) bool {
	if fn == nil || fn.Doc == nil {
		return false
	}
	for _, cm := range fn.Doc.List {
		if strings.Contains(cm.Text, marker) {
			return true
		}
	}
	return false
}

// funcMarkerArgs parses "<marker> a b c" out of the function's doc comment
// and returns the argument words (nil, false when the marker is absent).
func funcMarkerArgs(fn *ast.FuncDecl, marker string) ([]string, bool) {
	if fn == nil || fn.Doc == nil {
		return nil, false
	}
	for _, cm := range fn.Doc.List {
		if args, ok := markerArgs(cm.Text, marker); ok {
			return args, true
		}
	}
	return nil, false
}

// markerArgs extracts the words following marker inside one comment text.
func markerArgs(text, marker string) ([]string, bool) {
	i := strings.Index(text, marker)
	if i < 0 {
		return nil, false
	}
	return strings.Fields(text[i+len(marker):]), true
}

// eachFuncDecl visits every function declaration with a body.
func eachFuncDecl(p *Pass, visit func(fn *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				visit(fn)
			}
		}
	}
}

// funcGraph builds the CFG of one declaration for the analyzers.
func funcGraph(fn *ast.FuncDecl) *cfg.Graph {
	return cfg.New(fn.Name.Name, fn)
}

// recvBase resolves the leftmost identifier's object under an expression —
// the base a protocol machine keys its state on (`pt` in pt.pub.Store(v)).
// Unlike rootIdentObj it never stops at an intermediate field.
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
		case *ast.CallExpr:
			return nil // derived through a call: no stable base
		default:
			return nil
		}
	}
}

// typeFromPkg reports whether t (after deref) is a defined type whose
// package path is pkgPath ("sync", "sync/atomic"). Generic instantiations
// (atomic.Pointer[T]) resolve through their origin object.
func typeFromPkg(t types.Type, pkgPath string) bool {
	if t == nil {
		return false
	}
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// methodCall decomposes a call of the form recv.Name(args...) into the
// receiver expression and method name ("" when not a method call).
func methodCall(call *ast.CallExpr) (recv ast.Expr, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	return sel.X, sel.Sel.Name
}
