package lint

import (
	"go/ast"
	"go/types"

	"pref/internal/lint/cfg"
)

// HappensBefore is an ordering rule over plain fields that an atomic or a
// mutex guards (the atomics themselves are sync/atomic types, which allow
// no plain access): a struct field annotated
// "// lint:guarded-by <guard>..." may only be accessed on paths where one
// of the named sibling guard fields was acquired first — an atomic field's
// Load (the acquire edge matching the publisher's Store) or a mutex's
// Lock/RLock. This is the epoch-guard idiom of table.Partitioned: `shared`
// is meaningful only relative to the published epoch, so reading it before
// the atomic load of `pub` races with publication even though every
// individual access is simple. The check is path-sensitive dominance over
// the CFG, not text order: an access is flagged exactly when SOME path
// reaches it without passing an acquire. Functions whose callers hold a
// guard declare "// lint:holds <guard>...".
var HappensBefore = &Analyzer{
	Name: "happensbefore",
	Doc:  "plain access to an epoch-guarded field must be dominated by the guard's atomic load or lock acquisition",
	Run:  runHappensBefore,
}

const (
	hbEvAcquire = iota
	hbEvRelease
	hbEvAccess
)

func runHappensBefore(p *Pass) error {
	guards := collectGuardedFields(p)
	if len(guards) == 0 {
		return nil
	}
	eachFuncDecl(p, func(fn *ast.FuncDecl) {
		checkHappensBefore(p, fn, guards)
	})
	return nil
}

// collectGuardedFields parses lint:guarded-by annotations off struct field
// docs: guarded field object -> names of its sibling guard fields.
func collectGuardedFields(p *Pass) map[*types.Var][]string {
	out := map[*types.Var][]string{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				names := guardNames(field)
				if names == nil {
					continue
				}
				for _, id := range field.Names {
					if v, ok := p.TypesInfo.Defs[id].(*types.Var); ok {
						out[v] = names
					}
				}
			}
			return true
		})
	}
	return out
}

// guardNames extracts the guard list from a field's doc or line comment.
func guardNames(field *ast.Field) []string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, cm := range cg.List {
			if args, ok := markerArgs(cm.Text, guardedByMarker); ok && len(args) > 0 {
				return args
			}
		}
	}
	return nil
}

func checkHappensBefore(p *Pass, fn *ast.FuncDecl, guards map[*types.Var][]string) {
	held := map[string]bool{}
	if args, ok := funcMarkerArgs(fn, holdsMarker); ok {
		for _, a := range args {
			held[a] = true
		}
	}

	// Accesses in this function, grouped by (base object, guarded field):
	// each group runs its own acquire machine keyed on that base.
	type domain struct {
		base  types.Object
		field *types.Var
	}
	accessed := map[domain]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		f := fieldObj(p, sel)
		if f == nil {
			return true
		}
		gs, guarded := guards[f]
		if !guarded || allHeld(gs, held) {
			return true
		}
		if base := recvBase(p, sel.X); base != nil {
			accessed[domain{base, f}] = true
		}
		return true
	})
	if len(accessed) == 0 {
		return
	}

	g := funcGraph(fn)
	for d := range accessed {
		guardSet := map[string]bool{}
		covered := false
		for _, name := range guards[d.field] {
			guardSet[name] = true
			if held[name] {
				covered = true
			}
		}
		if covered {
			continue
		}
		m := &cfg.Machine{
			Init: 0,
			Classify: func(n ast.Node) (int, bool) {
				return classifyGuardEvent(p, n, d.base, d.field, guardSet)
			},
			Step: func(state, event int) int {
				switch event {
				case hbEvAcquire:
					return 1
				case hbEvRelease:
					return 0
				}
				return state
			},
		}
		res := m.Run(g)
		for n, states := range res.Events {
			ev, _ := classifyGuardEvent(p, n, d.base, d.field, guardSet)
			if ev != hbEvAccess || !states.Has(0) {
				continue
			}
			p.Report(n, "access to %s is not dominated by an acquire of its guard (%s); a concurrent publish can change the epoch under this read",
				d.field.Name(), joinNames(guards[d.field]))
		}
	}
}

// classifyGuardEvent recognizes, relative to one (base, guarded field)
// domain: acquires of any listed guard on the same base (atomic Load,
// mutex Lock/RLock), releases (Unlock/RUnlock), and accesses of the
// guarded field itself.
func classifyGuardEvent(p *Pass, n ast.Node, base types.Object, field *types.Var, guardSet map[string]bool) (int, bool) {
	switch n := n.(type) {
	case *ast.CallExpr:
		recv, name := methodCall(n)
		sel, ok := recv.(*ast.SelectorExpr)
		if !ok || !guardSet[sel.Sel.Name] || recvBase(p, sel.X) != base {
			return 0, false
		}
		t := exprType(p, recv)
		switch name {
		case "Load", "CompareAndSwap", "Swap":
			if typeFromPkg(t, "sync/atomic") {
				return hbEvAcquire, true
			}
		case "Lock", "RLock":
			if typeFromPkg(t, "sync") {
				return hbEvAcquire, true
			}
		case "Unlock", "RUnlock":
			if typeFromPkg(t, "sync") {
				return hbEvRelease, true
			}
		}
	case *ast.SelectorExpr:
		if fieldObj(p, n) == field && recvBase(p, n.X) == base {
			return hbEvAccess, true
		}
	}
	return 0, false
}

// allHeld reports whether any of the field's guards is declared held.
func allHeld(guards []string, held map[string]bool) bool {
	for _, g := range guards {
		if held[g] {
			return true
		}
	}
	return false
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " or "
		}
		out += n
	}
	return out
}
