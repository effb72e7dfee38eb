package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Def is one definition site of a local variable: an assignment, short
// declaration, var spec, inc/dec, range key/value binding, or (at Entry)
// a parameter/receiver/named result.
type Def struct {
	ID    int
	Var   *types.Var
	Node  ast.Node // the defining statement/expression
	Block *Block
}

// DefSet is a set of definition IDs.
type DefSet map[int]bool

func (s DefSet) clone() DefSet {
	out := make(DefSet, len(s))
	for id := range s {
		out[id] = true
	}
	return out
}

func (s DefSet) equal(o DefSet) bool {
	if len(s) != len(o) {
		return false
	}
	for id := range s {
		if !o[id] {
			return false
		}
	}
	return true
}

// Reach is the reaching-definitions solution of one Graph: for every
// reachable block, the set of definitions live on entry.
type Reach struct {
	g    *Graph
	info *types.Info
	Defs []*Def
	In   map[*Block]DefSet
	// byVar indexes definitions by variable for kill sets.
	byVar map[*types.Var][]*Def
}

// ReachingDefs computes reaching definitions over the graph. decl supplies
// the parameter/receiver/result definitions seeded at Entry (may be nil).
func (g *Graph) ReachingDefs(info *types.Info, decl *ast.FuncDecl) *Reach {
	r := &Reach{g: g, info: info, In: map[*Block]DefSet{}, byVar: map[*types.Var][]*Def{}}

	addDef := func(v *types.Var, n ast.Node, b *Block) {
		d := &Def{ID: len(r.Defs), Var: v, Node: n, Block: b}
		r.Defs = append(r.Defs, d)
		r.byVar[v] = append(r.byVar[v], d)
	}
	if decl != nil {
		seed := func(fl *ast.FieldList) {
			if fl == nil {
				return
			}
			for _, f := range fl.List {
				for _, name := range f.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						addDef(v, name, g.Entry)
					}
				}
			}
		}
		seed(decl.Recv)
		if decl.Type != nil {
			seed(decl.Type.Params)
			seed(decl.Type.Results)
		}
	}
	reachable := g.Reachable()
	for _, b := range reachable {
		for _, n := range b.Nodes {
			r.collectDefs(n, b, addDef)
		}
	}

	// Per-block gen/kill: later in-block defs of a variable kill earlier
	// ones; all defs of a variable elsewhere are killed too.
	gen := map[*Block]DefSet{}
	killVars := map[*Block]map[*types.Var]bool{}
	for _, d := range r.Defs {
		if gen[d.Block] == nil {
			gen[d.Block] = DefSet{}
			killVars[d.Block] = map[*types.Var]bool{}
		}
		// A later def of the same var in the same block supersedes: drop
		// earlier gen entries for the var.
		for _, prev := range r.byVar[d.Var] {
			if prev.Block == d.Block && prev.ID < d.ID {
				delete(gen[d.Block], prev.ID)
			}
		}
		gen[d.Block][d.ID] = true
		killVars[d.Block][d.Var] = true
	}

	out := map[*Block]DefSet{}
	for _, b := range reachable {
		r.In[b] = DefSet{}
		out[b] = DefSet{}
	}
	changed := true
	for changed {
		changed = false
		for _, b := range reachable {
			in := DefSet{}
			for _, p := range b.Preds {
				for id := range out[p] {
					in[id] = true
				}
			}
			o := in.clone()
			for v := range killVars[b] {
				for _, d := range r.byVar[v] {
					delete(o, d.ID)
				}
			}
			for id := range gen[b] {
				o[id] = true
			}
			if !in.equal(r.In[b]) || !o.equal(out[b]) {
				r.In[b] = in
				out[b] = o
				changed = true
			}
		}
	}
	return r
}

// collectDefs finds the definitions a single block node performs.
func (r *Reach) collectDefs(n ast.Node, b *Block, add func(*types.Var, ast.Node, *Block)) {
	defIdent := func(e ast.Expr, site ast.Node) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if v, ok := r.info.Defs[id].(*types.Var); ok {
			add(v, site, b)
			return
		}
		if v, ok := r.info.Uses[id].(*types.Var); ok && !v.IsField() {
			add(v, site, b)
		}
	}
	VisitExprs(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				defIdent(lhs, m)
			}
		case *ast.IncDecStmt:
			defIdent(m.X, m)
		case *ast.RangeStmt:
			if m.Tok == token.DEFINE || m.Tok == token.ASSIGN {
				defIdent(m.Key, m)
				defIdent(m.Value, m)
			}
		case *ast.ValueSpec:
			for _, name := range m.Names {
				defIdent(name, m)
			}
		}
		return true
	})
}

// ForEachUse walks every reachable block in order and calls visit for each
// identifier use of a local variable, passing the definitions of that
// variable reaching the use. Definitions are tracked statement-precisely
// inside the block (a def earlier in the block supersedes the block-entry
// set for its variable).
func (r *Reach) ForEachUse(visit func(id *ast.Ident, v *types.Var, defs []*Def)) {
	// Index defs by node for in-block replay.
	defsAt := map[ast.Node][]*Def{}
	for _, d := range r.Defs {
		defsAt[d.Node] = append(defsAt[d.Node], d)
	}
	for _, b := range r.g.Reachable() {
		cur := r.In[b].clone()
		apply := func(site ast.Node) {
			for _, d := range defsAt[site] {
				if d.Block != b {
					continue
				}
				for _, o := range r.byVar[d.Var] {
					delete(cur, o.ID)
				}
				cur[d.ID] = true
			}
		}
		for _, n := range b.Nodes {
			VisitExprs(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.AssignStmt, *ast.IncDecStmt, *ast.ValueSpec, *ast.RangeStmt:
					// Pre-order replay: the def is applied before the RHS
					// uses are visited, so a self-referential read (x = x+1)
					// sees the new def instead of the old one. No analyzer
					// here distinguishes the two.
					apply(m)
					return true
				case *ast.Ident:
					if v, ok := r.info.Uses[m].(*types.Var); ok && !v.IsField() {
						var reaching []*Def
						for _, d := range r.byVar[v] {
							if cur[d.ID] {
								reaching = append(reaching, d)
							}
						}
						if len(reaching) > 0 {
							visit(m, v, reaching)
						}
					}
				}
				return true
			})
		}
	}
}

// String renders block-entry reaching sets ("name@line") for goldens.
func (r *Reach) String(fset *token.FileSet) string {
	var sb strings.Builder
	for _, b := range r.g.Reachable() {
		ids := make([]int, 0, len(r.In[b]))
		for id := range r.In[b] {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var parts []string
		for _, id := range ids {
			d := r.Defs[id]
			line := 0
			if fset != nil {
				line = fset.Position(d.Node.Pos()).Line
			}
			parts = append(parts, fmt.Sprintf("%s@L%d", d.Var.Name(), line))
		}
		// Deterministic secondary order: name then line.
		sort.Strings(parts)
		fmt.Fprintf(&sb, "  reach b%d: {%s}\n", b.Index, strings.Join(parts, " "))
	}
	return sb.String()
}
