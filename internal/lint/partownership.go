package lint

import (
	"go/ast"
	"go/types"
)

// partPkgs are the packages holding per-partition runtime state: engine
// (operator row sets, executing-node maps), fault (injection keyed by
// node), and trace (per-node metric cells).
var partPkgs = map[string]bool{
	"engine": true,
	"fault":  true,
	"trace":  true,
}

// partStateFields are field/variable names that denote per-partition or
// per-node indexed state even when the element type alone does not give it
// away: base-table partitions, the executing-node map, and per-node
// metering cells.
var partStateFields = map[string]bool{
	"Parts":   true,
	"execDst": true,
	"cells":   true,
}

// partitionParamNames are the conventional names of a partition/node-id
// parameter. A function owning such a parameter is partition-scoped: it
// acts on behalf of exactly that partition.
var partitionParamNames = map[string]bool{
	"p": true, "src": true, "dst": true, "node": true, "en": true,
}

// PartOwnership statically enforces the shared-nothing contract inside the
// single-process engine: state indexed by partition (or node) id — any
// [][]T row-set, plus the named per-partition fields above — may only be
// indexed by the enclosing function's own partition-id parameter. Anything
// else (another variable, a constant, arithmetic, or ranging across all
// partitions) is a cross-partition access, legal only inside a function
// whose doc comment declares it a sanctioned exchange/ship/recovery site
// with "// lint:ship-boundary <reason>". This is the compile-time half of
// check.VerifyTrace's ship-legality law: an operator that touches another
// partition's rows without going through a declared boundary cannot ship
// silently.
var PartOwnership = &Analyzer{
	Name: "partownership",
	Doc:  "per-partition state may only be indexed by the function's own partition id; cross-partition access requires a // lint:ship-boundary function",
	Run:  runPartOwnership,
}

func runPartOwnership(p *Pass) error {
	if !partPkgs[p.PkgName()] {
		return nil
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkOwnership(p, fn.Body, ownCtx{
				name:      fn.Name.Name,
				partParam: partitionParam(p, fn.Recv, fn.Type),
				boundary:  isShipBoundary(fn),
			})
		}
	}
	return nil
}

// ownCtx is one function scope's ownership context: which object is its
// own partition id (nil when the scope is not partition-scoped) and
// whether the enclosing declaration is a sanctioned ship boundary.
type ownCtx struct {
	name      string
	partParam types.Object
	boundary  bool
}

// partitionParam picks the scope's partition-id parameter: the first int
// parameter with a conventional name, or — for closures — a sole int
// parameter regardless of name (the partUnit shape func(p int) (...)).
func partitionParam(p *Pass, recv *ast.FieldList, ft *ast.FuncType) types.Object {
	if ft.Params == nil {
		return nil
	}
	_ = recv // receivers are never partition ids
	var sole types.Object
	ints := 0
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := p.TypesInfo.Defs[name]
			if obj == nil || !isInt(obj.Type()) {
				continue
			}
			ints++
			sole = obj
			if partitionParamNames[name.Name] {
				return obj
			}
		}
	}
	if ints == 1 {
		return sole
	}
	return nil
}

// checkOwnership walks one function scope. Function literals open a nested
// scope: their own int parameter (if any) becomes the owning partition id,
// otherwise they inherit the enclosing scope's; the ship-boundary sanction
// always flows down from the enclosing declaration.
func checkOwnership(p *Pass, body ast.Node, ctx ownCtx) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := ctx
			inner.name += " (closure)"
			if pp := partitionParam(p, nil, n.Type); pp != nil {
				inner.partParam = pp
			}
			checkOwnership(p, n.Body, inner)
			return false
		case *ast.IndexExpr:
			if !isPartState(p, n.X) || ctx.boundary {
				return true
			}
			if id, ok := n.Index.(*ast.Ident); ok && ctx.partParam != nil &&
				p.TypesInfo.Uses[id] == ctx.partParam {
				return true // own slot
			}
			p.Report(n, "%s indexes per-partition state %s outside its own partition; move the access into a // lint:ship-boundary function",
				ctx.name, exprString(n.X))
		case *ast.RangeStmt:
			if !isPartState(p, n.X) || ctx.boundary {
				return true
			}
			p.Report(n, "%s sweeps all partitions of %s; ranging per-partition state requires a // lint:ship-boundary function",
				ctx.name, exprString(n.X))
		}
		return true
	})
}

// isPartState reports whether an expression denotes per-partition indexed
// state: a partition→rows container ([][]value.Tuple and shapes like it),
// or a slice/map named as one of the known per-partition fields. The shape
// test is deliberately two-level: the outer index is the partition id, so
// the element must be an unnamed slice of a named row type. A bare
// []value.Tuple — one partition's own rows — is plain data, even though
// Tuple's underlying type is itself a slice.
func isPartState(p *Pass, e ast.Expr) bool {
	t := exprType(p, e)
	if t == nil {
		return false
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		if inner, ok := s.Elem().(*types.Slice); ok {
			if _, named := types.Unalias(inner.Elem()).(*types.Named); named {
				return true
			}
		}
	}
	name := ""
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	}
	if !partStateFields[name] {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// exprString renders a short expression for diagnostics (identifier or
// selector chains; anything else is elided).
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return "per-partition state"
}
