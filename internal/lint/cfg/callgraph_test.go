package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// loadSource parses and type-checks one import-free source string.
func loadSource(t *testing.T, src string) (*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "callgraph_fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{}
	if _, err := conf.Check("fixture", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return file, info
}

const callGraphSrc = `package fixture

type res struct{ n int }

func (r *res) close() {}

func leaf(r *res) { r.close() }

func mid(r *res) { leaf(r) }

func top(r *res) {
	mid(r)
	f := leaf // function value: dynamic at the call site below
	f(r)
}

func pingA(r *res, n int) {
	if n > 0 {
		pingB(r, n-1)
	}
}

func pingB(r *res, n int) { pingA(r, n) }

func generic[T any](v T) T { return v }

func usesGeneric() { _ = generic(1) }

func viaClosure(r *res) {
	fn := func() { leaf(r) }
	fn()
}

func conversions() { _ = int64(3) }
`

func nodeByName(t *testing.T, cg *CallGraph, name string) *FuncNode {
	t.Helper()
	for _, n := range cg.Nodes {
		if n.Fn.Name() == name {
			return n
		}
	}
	t.Fatalf("function %s not in call graph", name)
	return nil
}

// calleeNames renders a node's resolved callee set for assertions.
func calleeNames(n *FuncNode) []string {
	var out []string
	for _, s := range n.Sites {
		if s.Callee != nil {
			out = append(out, s.Callee.Name())
		} else {
			out = append(out, "<dynamic>")
		}
	}
	return out
}

func TestCallGraphResolution(t *testing.T) {
	file, info := loadSource(t, callGraphSrc)
	cg := NewCallGraph([]*ast.File{file}, info)

	cases := map[string]string{
		"leaf":        "close",          // method call resolves to *types.Func
		"mid":         "leaf",           // plain call
		"top":         "mid <dynamic>",  // function value stays a site, unresolved
		"usesGeneric": "generic",        // instantiation resolves to the origin
		"viaClosure":  "leaf <dynamic>", // call inside FuncLit belongs to the decl
		"conversions": "",               // int64(3) is a conversion, not a call
	}
	for name, want := range cases {
		got := strings.Join(calleeNames(nodeByName(t, cg, name)), " ")
		if got != want {
			t.Errorf("%s: callees = %q, want %q", name, got, want)
		}
	}
}

func TestCallGraphBottomUp(t *testing.T) {
	file, info := loadSource(t, callGraphSrc)
	cg := NewCallGraph([]*ast.File{file}, info)
	sccs := cg.BottomUp()

	order := map[string]int{}
	for i, comp := range sccs {
		for _, n := range comp {
			order[n.Fn.Name()] = i
		}
	}
	// Callees must be solved before callers.
	for _, pair := range [][2]string{{"close", "leaf"}, {"leaf", "mid"}, {"mid", "top"}, {"leaf", "viaClosure"}} {
		if order[pair[0]] >= order[pair[1]] {
			t.Errorf("%s (component %d) should precede caller %s (component %d)",
				pair[0], order[pair[0]], pair[1], order[pair[1]])
		}
	}
	// The mutually recursive pair forms one component.
	if order["pingA"] != order["pingB"] {
		t.Errorf("pingA and pingB should share a component, got %d and %d", order["pingA"], order["pingB"])
	}
	for _, comp := range sccs {
		if len(comp) == 2 {
			if comp[0].Fn.Name() != "pingA" || comp[1].Fn.Name() != "pingB" {
				t.Errorf("recursive component should keep declaration order, got %s, %s",
					comp[0].Fn.Name(), comp[1].Fn.Name())
			}
		}
	}
}

// TestSolveFixpoint propagates an alias result bottom-up: close aliases by
// fiat, and any function calling an aliasing callee aliases too. The chain
// top -> mid -> leaf -> close must converge with every link marked, and the
// recursive pair must reach a fixpoint without spinning.
func TestSolveFixpoint(t *testing.T) {
	file, info := loadSource(t, callGraphSrc)
	cg := NewCallGraph([]*ast.File{file}, info)

	aliases := &Summary{Results: []ResultKind{ResAlias}}
	solved := cg.Solve(func(n *FuncNode, get func(*types.Func) *Summary) *Summary {
		if n.Fn.Name() == "close" {
			return aliases
		}
		s := &Summary{Results: make([]ResultKind, 1)}
		for _, site := range n.Sites {
			callee := get(site.Callee)
			if site.Callee != nil && site.Callee.Name() == "close" {
				callee = aliases
			}
			if callee != nil && callee.Results[0] == ResAlias {
				s.Results[0] = ResAlias
			}
		}
		return s
	})

	for _, name := range []string{"leaf", "mid", "top", "viaClosure"} {
		n := nodeByName(t, cg, name)
		if solved[n.Fn].Results[0] != ResAlias {
			t.Errorf("%s: alias should propagate bottom-up, got %s", name, solved[n.Fn])
		}
	}
	for _, name := range []string{"pingA", "pingB", "usesGeneric"} {
		n := nodeByName(t, cg, name)
		if solved[n.Fn].Results[0] == ResAlias {
			t.Errorf("%s: should not alias, got %s", name, solved[n.Fn])
		}
	}
}

func TestSummaryString(t *testing.T) {
	s := &Summary{Results: []ResultKind{ResAlias, ResUntracked}}
	if got, want := s.String(), "(alias, -)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if (*Summary)(nil).String() != "unknown" {
		t.Errorf("nil summary should render unknown")
	}
	if !(*Summary)(nil).Equal(nil) || s.Equal(nil) || !s.Equal(&Summary{Results: []ResultKind{ResAlias, ResUntracked}}) {
		t.Errorf("Equal nil handling wrong")
	}
}
