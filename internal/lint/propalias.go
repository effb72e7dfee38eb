package lint

import (
	"go/ast"
	"go/types"
)

// propSliceFields are the plan.Prop []string fields with copy-on-write
// semantics: the rewrite clones them at every transfer step, and
// internal/check's RulePropAlias verifies at runtime that no two live
// props share a backing array. This analyzer is the compile-time half: it
// flags assignments that store an existing slice into one of these fields,
// which aliases the backing array.
var propSliceFields = map[string]bool{
	"HashCols": true,
	"DupCols":  true,
}

// PropAlias flags `x.HashCols = y` / `x.DupCols = y.DupCols` style
// assignments (and the equivalent composite-literal fields) where the
// right-hand side aliases an existing slice rather than allocating a fresh
// one. Type information narrows the rule to fields of the actual Prop
// struct (a field merely named HashCols on an unrelated type is left
// alone, and access promoted through struct embedding is still caught) and
// closes the documented call false-negative: a call to a function that
// returns one of its slice parameters — or a Prop field — unchanged is an
// alias, not a fresh slice. nil, slice literals, append, and clone-style
// calls are fine; a deliberate alias is sanctioned like any other finding,
// with "//lint:ignore propalias <reason>".
var PropAlias = &Analyzer{
	Name: "propalias",
	Doc:  "Prop.HashCols/DupCols must be set from freshly allocated slices (clone, append, literal), never aliased from another slice",
	Run:  runPropAlias,
}

func runPropAlias(p *Pass) error {
	targets := propFieldTargets(p)
	if len(targets) == 0 {
		return nil
	}
	returners := aliasReturners(p, targets)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					fld := fieldObj(p, sel)
					if fld == nil || !targets[fld] {
						continue
					}
					if why := aliasingExpr(p, returners, n.Rhs[i]); why != "" {
						p.Report(n, "%s assigned from %s; clone it", sel.Sel.Name, why)
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					fld, ok := p.TypesInfo.Uses[key].(*types.Var)
					if !ok || !fld.IsField() || !targets[fld] {
						continue
					}
					if why := aliasingExpr(p, returners, kv.Value); why != "" {
						p.Report(kv, "%s initialized from %s; clone it", key.Name, why)
					}
				}
			}
			return true
		})
	}
	return nil
}

// propFieldTargets collects the *types.Var field objects of every Prop
// struct visible to this package (its own and those of direct imports): a
// defined struct type named Prop with both HashCols and DupCols []string
// fields. Keying on field objects means promoted access through embedding
// resolves to the same target, while unrelated fields that merely share a
// name do not.
func propFieldTargets(p *Pass) map[*types.Var]bool {
	targets := map[*types.Var]bool{}
	scopes := []*types.Scope{p.Pkg.Scope()}
	for _, imp := range p.Pkg.Imports() {
		scopes = append(scopes, imp.Scope())
	}
	for _, scope := range scopes {
		obj := scope.Lookup("Prop")
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var fields []*types.Var
		found := 0
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if propSliceFields[f.Name()] && isStringSlice(f.Type()) {
				fields = append(fields, f)
				found++
			}
		}
		if found == len(propSliceFields) {
			for _, f := range fields {
				targets[f] = true
			}
		}
	}
	return targets
}

func isStringSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

// aliasReturners marks which of this package's functions return an
// aliasing view of caller-owned memory: some return statement yields
// (after unwrapping parens and subslicing) one of the function's own slice
// parameters, a targeted Prop field, or a call to a marked function. It
// re-scans every function until a pass marks nothing new; marks only
// accumulate, so aliases laundered through wrappers, recursive ones
// included, reach the same fixpoint in any scan order.
func aliasReturners(p *Pass, targets map[*types.Var]bool) map[types.Object]bool {
	marked := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		eachFuncDecl(p, func(fn *ast.FuncDecl) {
			obj := p.TypesInfo.Defs[fn.Name]
			if marked[obj] {
				return
			}
			params := paramObjs(p, fn)
			ast.Inspect(fn.Body, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false // a closure's returns are not fn's
				}
				if ret, ok := m.(*ast.ReturnStmt); ok {
					for _, res := range ret.Results {
						if returnsAlias(p, marked, params, targets, res) {
							marked[obj], changed = true, true
						}
					}
				}
				return !marked[obj]
			})
		})
	}
	return marked
}

// callee resolves the function a call statically invokes, through parens
// and explicit instantiation, to its generic origin (nil for function
// values, built-ins and conversions).
func callee(p *Pass, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(e.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(e.X)
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, _ := fun.(*ast.Ident)
	if fn, ok := p.TypesInfo.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// paramObjs collects the parameter and receiver objects of fn that have
// slice type.
func paramObjs(p *Pass, fn *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := p.TypesInfo.Defs[name]; obj != nil {
					if _, ok := obj.Type().Underlying().(*types.Slice); ok {
						out[obj] = true
					}
				}
			}
		}
	}
	collect(fn.Recv)
	collect(fn.Type.Params)
	return out
}

// returnsAlias reports whether returning res hands the caller an alias of
// a parameter slice or a Prop property slice.
func returnsAlias(p *Pass, returners, params map[types.Object]bool, targets map[*types.Var]bool, res ast.Expr) bool {
	switch res := res.(type) {
	case *ast.Ident:
		return params[p.TypesInfo.Uses[res]]
	case *ast.SelectorExpr:
		fld := fieldObj(p, res)
		return fld != nil && targets[fld]
	case *ast.ParenExpr:
		return returnsAlias(p, returners, params, targets, res.X)
	case *ast.SliceExpr:
		return returnsAlias(p, returners, params, targets, res.X)
	case *ast.CallExpr:
		return returners[callee(p, res)]
	}
	return false
}

// aliasingExpr classifies whether assigning e shares a backing array,
// returning a short description of the alias ("" when e is fresh): a bare
// variable, a field or promoted field, a subslice of either, a slice
// conversion, or a call to an alias-returning function. append, make,
// literals, clone helpers, and nil are fresh.
func aliasingExpr(p *Pass, returners map[types.Object]bool, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		if obj, ok := p.TypesInfo.Uses[e].(*types.Var); ok && obj != nil {
			return "an existing slice"
		}
		return "" // nil, constants
	case *ast.SelectorExpr:
		if fieldObj(p, e) != nil {
			return "an existing slice"
		}
		if _, ok := p.TypesInfo.Uses[e.Sel].(*types.Var); ok {
			return "an existing slice"
		}
		return ""
	case *ast.ParenExpr:
		return aliasingExpr(p, returners, e.X)
	case *ast.SliceExpr:
		// s[i:j] still shares s's backing array; treat any slice of an
		// aliasing expression as aliasing.
		return aliasingExpr(p, returners, e.X)
	case *ast.CallExpr:
		if tv, ok := p.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
			// A conversion like []string(x) reuses x's backing array.
			if len(e.Args) == 1 && aliasingExpr(p, returners, e.Args[0]) != "" {
				return "a slice conversion of an existing slice"
			}
			return ""
		}
		if fn := callee(p, e); returners[fn] {
			return "a call to " + fn.Name() + ", which returns an existing slice unchanged"
		}
		return ""
	}
	return ""
}
