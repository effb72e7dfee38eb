package cfg

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// loadFixtures parses and type-checks testdata/funcs.go (import-free by
// design, so a bare types.Config suffices).
func loadFixtures(t *testing.T) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filepath.Join("testdata", "funcs.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixtures: %v", err)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{}
	if _, err := conf.Check("fixtures", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck fixtures: %v", err)
	}
	return fset, file, info
}

// TestGolden builds the CFG and reaching-definitions solution for every
// fixture function and compares the combined dump against
// testdata/golden.txt. Run with -update to rewrite.
func TestGolden(t *testing.T) {
	fset, file, info := loadFixtures(t)
	var sb strings.Builder
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		g := New(fn.Name.Name, fn)
		sb.WriteString(g.Dump(fset))
		sb.WriteString(g.ReachingDefs(info, fn).String(fset))
		sb.WriteString("\n")
	}
	got := sb.String()

	goldenPath := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch (re-run with -update after verifying):\n%s", diffLines(string(want), got))
	}
}

func diffLines(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&sb, "line %d:\n  want: %q\n  got:  %q\n", i+1, w, g)
		}
	}
	return sb.String()
}

// graphOf builds the CFG for a named fixture function.
func graphOf(t *testing.T, file *ast.File, name string) (*ast.FuncDecl, *Graph) {
	t.Helper()
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == name {
			return fn, New(name, fn)
		}
	}
	t.Fatalf("fixture %s not found", name)
	return nil, nil
}

// TestShortCircuitBranches verifies && / || decomposition: in
// shortCircuit, `b` and `n > 0` must sit in separate blocks only reachable
// through `a`'s true edge.
func TestShortCircuitBranches(t *testing.T) {
	_, file, _ := loadFixtures(t)
	_, g := graphOf(t, file, "shortCircuit")
	var and, or *Block
	for _, b := range g.Reachable() {
		switch b.Kind {
		case "cond.and":
			and = b
		case "cond.or":
			or = b
		}
	}
	if and == nil || or == nil {
		t.Fatalf("short-circuit blocks missing: and=%v or=%v", and, or)
	}
	if len(or.Preds) != 1 || or.Preds[0] != and {
		t.Errorf("`n > 0` must be reachable only from the `b` block (the && midpoint)")
	}
	// Each leaf block must end with exactly two successors (true/false).
	for _, b := range []*Block{and, or} {
		if len(b.Succs) != 2 {
			t.Errorf("cond leaf b%d has %d succs, want 2", b.Index, len(b.Succs))
		}
	}
}

// TestReachingDefsUse verifies ForEachUse sees the right defs: in loops,
// the use of sum in `return sum` is reached by both the initialization and
// the `sum += i` update.
func TestReachingDefsUse(t *testing.T) {
	fset, file, info := loadFixtures(t)
	fn, g := graphOf(t, file, "loops")
	r := g.ReachingDefs(info, fn)
	var gotLines []int
	r.ForEachUse(func(id *ast.Ident, v *types.Var, defs []*Def) {
		if v.Name() != "sum" {
			return
		}
		// The use inside `return sum`.
		if len(defs) >= 2 {
			for _, d := range defs {
				gotLines = append(gotLines, fset.Position(d.Node.Pos()).Line)
			}
		}
	})
	if len(gotLines) < 2 {
		t.Fatalf("expected a sum use reached by >=2 defs, got %v", gotLines)
	}
}
