package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// rootContexts lists where f names context.Background or context.TODO.
// The context package is resolved through f's import table, so a renamed
// import is still caught.
func rootContexts(fset *token.FileSet, f *ast.File) []string {
	ctxNames := map[string]bool{}
	for _, im := range f.Imports {
		if im.Path.Value == `"context"` {
			name := "context"
			if im.Name != nil {
				name = im.Name.Name
			}
			ctxNames[name] = true
		}
	}
	var found []string
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Background" || sel.Sel.Name == "TODO") {
			if id, ok := sel.X.(*ast.Ident); ok && ctxNames[id.Name] {
				found = append(found, fset.Position(sel.Pos()).String())
			}
		}
		return true
	})
	return found
}

// TestNoRootContexts holds the execution packages to the caller's context:
// per-partition work that mints its own root context silently opts out of
// the query's deadline and cancellation. ExecuteCtx is the engine's one
// entry point; only callers outside these packages start a context.
func TestNoRootContexts(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../fault", "../cluster"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, at := range rootContexts(fset, f) {
				t.Errorf("%s: root context minted in an execution package; take ctx from the caller", at)
			}
		}
	}
	for name, src := range map[string]string{
		"worker closure": `import "context"
func run() { go func() { _ = context.Background() }() }`,
		"renamed import": `import stdctx "context"
func run() { _ = stdctx.TODO() }`,
	} {
		f, err := parser.ParseFile(fset, name, "package engine\n"+src, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rootContexts(fset, f)) != 1 {
			t.Errorf("%s: not caught", name)
		}
	}
}
