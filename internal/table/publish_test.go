package table

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// publishShape checks the epoch publication of one package's sources:
// exactly one Store, Swap or CompareAndSwap on a pub field, as the last
// statement of a function with no goto and no defer. In that shape nothing
// can run after the new version becomes visible to readers. It returns what
// is wrong, or "".
func publishShape(files []*ast.File) string {
	isPublish := map[string]bool{"Store": true, "Swap": true, "CompareAndSwap": true}
	var stores []*ast.CallExpr
	var fns []*ast.FuncDecl
	jumps := map[*ast.FuncDecl]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.DeferStmt:
					jumps[fn] = true
				case *ast.BranchStmt:
					jumps[fn] = jumps[fn] || n.Tok == token.GOTO
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isPublish[sel.Sel.Name] {
						if pub, ok := sel.X.(*ast.SelectorExpr); ok && pub.Sel.Name == "pub" {
							stores, fns = append(stores, n), append(fns, fn)
						}
					}
				}
				return true
			})
		}
	}
	if len(stores) != 1 {
		return fmt.Sprintf("%d stores on pub, want exactly 1", len(stores))
	}
	body := fns[0].Body.List
	if last, ok := body[len(body)-1].(*ast.ExprStmt); !ok || last.X != stores[0] || jumps[fns[0]] {
		return fmt.Sprintf("the store in %s is not the last statement of a function without goto or defer", fns[0].Name.Name)
	}
	return ""
}

// TestPublishIsTheLastStatement holds the publish ordering the incremental
// load relies on: no bookkeeping a reader may observe follows the atomic
// store that makes a version visible. The hazard sources are the shapes
// that once raced or could.
func TestPublishIsTheLastStatement(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if !strings.HasSuffix(p, "_test.go") {
			f, err := parser.ParseFile(fset, p, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	if msg := publishShape(files); msg != "" {
		t.Fatalf("package table: %s", msg)
	}
	for name, body := range map[string]string{
		// The publish-ordering race a chaos soak once caught: the clone
		// flags were rewritten after the store.
		"field write after the store": `pt.pub.Store(v); for i := range pt.shared { pt.shared[i] = true }`,
		"second store":                `pt.pub.Store(v); pt.pub.Store(w)`,
		"store in a branch":           `if ok { pt.pub.Store(v) }`,
		"goto in the publishing body": `again: pt.n++; if pt.n < 3 { goto again }; pt.pub.Store(v)`,
		"deferred write":              `defer func() { pt.n++ }(); pt.pub.Store(v)`,
	} {
		f, err := parser.ParseFile(token.NewFileSet(), name, "package table\nfunc (pt *P) publish() {"+body+"}", 0)
		if err != nil {
			t.Fatal(err)
		}
		if publishShape([]*ast.File{f}) == "" {
			t.Errorf("%s: not caught", name)
		}
	}
}
