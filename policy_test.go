package pref_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var mustName = regexp.MustCompile(`^Must([A-Z]|$)`)

// panicPolicy lists one file's breaches of the panic policy: a panic call
// without "lint:invariant" on its line or the line above, a marker with no
// panic on its line or the line below (it declares nothing), and any call
// to a Must* helper (a panic by proxy) in the execution-path packages, where
// a panic takes down a worker instead of failing one query. It also counts
// the marked panics.
func panicPolicy(fset *token.FileSet, f *ast.File) (bad []string, marked int) {
	markers := map[int]token.Position{} // by line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "lint:invariant") {
				at := fset.Position(c.Pos())
				markers[at.Line] = at
			}
		}
	}
	used := map[int]bool{} // marker lines a panic is on or below
	execPath := map[string]bool{"engine": true, "fault": true, "partition": true, "bulkload": true, "check": true}[f.Name.Name]
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		at := fset.Position(call.Pos())
		name := ""
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			name = fn.Name
		case *ast.SelectorExpr:
			name = fn.Sel.Name
		}
		_, on := markers[at.Line]
		_, above := markers[at.Line-1]
		switch {
		case name == "panic" && (on || above):
			if on {
				used[at.Line] = true
			} else {
				used[at.Line-1] = true
			}
			marked++
		case name == "panic":
			bad = append(bad, at.String()+": panic without a lint:invariant marker")
		case execPath && mustName.MatchString(name):
			bad = append(bad, at.String()+": "+name+" in execution-path package "+f.Name.Name)
		}
		return true
	})
	for line, at := range markers {
		if !used[line] {
			bad = append(bad, at.String()+": lint:invariant marker on no panic")
		}
	}
	return bad, marked
}

// TestPanicPolicy walks every non-test Go file of the module outside
// testdata and holds it to the panic policy: a panic declares the
// programmer-error invariant it guards, and execution-path packages call
// no Must* helper.
func TestPanicPolicy(t *testing.T) {
	fset := token.NewFileSet()
	files, marked := 0, 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && (d.Name() == "testdata" || d.Name() == ".git") {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		bad, m := panicPolicy(fset, f)
		for _, b := range bad {
			t.Error(b)
		}
		files, marked = files+1, marked+m
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 || marked != 10 {
		t.Fatalf("walked %d files and found %d marked panics; want over 50 and 10", files, marked)
	}
	for name, src := range map[string]string{
		"unmarked panic":   `package plan; func f() { panic("boom") }`,
		"MustX in engine":  `package engine; func f() { _ = catalog.MustTable("t") }`,
		"bare Must helper": `package check; func f() { MustLoad() }`,
		"marker on no panic": `package bulkload
func f(n int) error {
	// lint:invariant n was checked above
	return fmt.Errorf("n = %d", n)
}`,
	} {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if bad, _ := panicPolicy(fset, f); len(bad) != 1 {
			t.Errorf("%s: want one breach, got %v", name, bad)
		}
	}
	f, err := parser.ParseFile(fset, "allowed", `package engine
func f() {
	Mustard()
	// lint:invariant the caller checked n
	panic("unreachable")
}`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if bad, m := panicPolicy(fset, f); len(bad) != 0 || m != 1 {
		t.Errorf("allowed source: breaches %v, %d marked panics; want none and 1", bad, m)
	}
}
