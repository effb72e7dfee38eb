package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wantsOf parses `// want "substr"` annotations out of fixture source:
// every annotated line must produce a diagnostic containing substr, and no
// unannotated line may produce anything.
func wantsOf(t *testing.T, src string) map[int]string {
	t.Helper()
	wants := map[int]string{}
	sc := bufio.NewScanner(strings.NewReader(src))
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		i := strings.Index(text, `// want "`)
		if i < 0 {
			continue
		}
		rest := text[i+len(`// want "`):]
		j := strings.Index(rest, `"`)
		if j < 0 {
			t.Fatalf("line %d: malformed want comment", line)
		}
		wants[line] = rest[:j]
	}
	return wants
}

// checkWants compares diagnostics against want annotations keyed by line.
func checkWants(t *testing.T, label string, wants map[int]string, diags []Diagnostic) {
	t.Helper()
	got := map[int][]string{}
	for _, d := range diags {
		got[d.Pos.Line] = append(got[d.Pos.Line], d.Message)
	}
	for line, substr := range wants {
		msgs, ok := got[line]
		if !ok {
			t.Errorf("%s:%d: want diagnostic containing %q, got none", label, line, substr)
			continue
		}
		found := false
		for _, m := range msgs {
			if strings.Contains(m, substr) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s:%d: want diagnostic containing %q, got %q", label, line, substr, msgs)
		}
	}
	for line, msgs := range got {
		if _, ok := wants[line]; !ok {
			t.Errorf("%s:%d: unexpected diagnostic %q", label, line, msgs)
		}
	}
}

// runWant analyzes an in-memory fixture against its own want annotations.
// The fixture must be self-contained: it fully type-checks with at most
// standard-library imports.
func runWant(t *testing.T, filename, src string, analyzers []*Analyzer) {
	t.Helper()
	diags, err := RunSource(filename, src, analyzers)
	if err != nil {
		t.Fatalf("%s: %v", filename, err)
	}
	checkWants(t, filename, wantsOf(t, src), diags)
}

// runWantDir analyzes the on-disk fixture package named after the analyzer.
func runWantDir(t *testing.T, a *Analyzer) {
	t.Helper()
	runWantIn(t, a, a.Name)
}

// runWantIn analyzes the on-disk fixture package testdata/src/<name> with a
// single analyzer, against the want annotations in its files.
func runWantIn(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	diags, err := RunDir(dir, []*Analyzer{a})
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var own []Diagnostic
		for _, d := range diags {
			if filepath.Base(d.Pos.Filename) == e.Name() {
				own = append(own, d)
			}
		}
		checkWants(t, e.Name(), wantsOf(t, string(src)), own)
	}
}

func TestInvariantPanicFixtures(t *testing.T) {
	const src = `package engine

type schema struct{}

func (schema) MustIndex(c string) int { return 0 }

func MustLoad(s string) {}
func mustard()          {}
func Mustard()          {}

func ok() {
	// lint:invariant idx was bounds-checked by the caller
	panic("unreachable")
}

func okSameLine() {
	panic("unreachable") // lint:invariant checked above
}

func bad() {
	panic("boom") // want "panic without"
}

func mustCalls(s schema) {
	_ = s.MustIndex("c") // want "Must-style call MustIndex in execution-path package engine"
	// lint:invariant column existence proven by the binder
	_ = s.MustIndex("c")
	MustLoad("x") // want "Must-style call MustLoad"
	mustard()     // lowercase, not the convention
	Mustard()     // "Mustard" is not Must+UpperCamel
}
`
	runWant(t, "invariantpanic_fixture.go", src, []*Analyzer{InvariantPanic})
}

func TestInvariantPanicUnrestrictedPkg(t *testing.T) {
	// Outside the execution-path packages Must* is fine, but naked panics
	// still need the marker.
	const src = `package tpch

type schema struct{}

func (schema) MustIndex(c string) int { return 0 }

func f(s schema) {
	_ = s.MustIndex("c")
	panic("no") // want "panic without"
}
`
	runWant(t, "invariantpanic_tpch.go", src, []*Analyzer{InvariantPanic})
}

func TestCtxThreadFixtures(t *testing.T) {
	const src = `package engine

import "context"

type Engine struct{}

type key string

func Execute() {
	ctx := context.Background() // exported top-level wrapper: allowed
	_ = ctx
}

func Run() {
	go func() {
		ctx := context.Background() // want "detaches per-partition work"
		_ = ctx
	}()
}

func helper() {
	ctx := context.TODO() // want "context.TODO in helper"
	_ = ctx
}

func (e *Engine) Exec() {
	ctx := context.Background() // want "context.Background in Exec"
	_ = ctx
}

func WithValue(ctx context.Context) {
	ctx = context.WithValue(ctx, key("k"), 1) // deriving from ctx is fine
	_ = ctx
}
`
	runWant(t, "ctxthread_fixture.go", src, []*Analyzer{CtxThread})
}

func TestCtxThreadRenamedImport(t *testing.T) {
	// The import table, not the identifier spelling, decides what is the
	// context package.
	const src = `package engine

import stdctx "context"

func helper() {
	ctx := stdctx.Background() // want "context.Background in helper"
	_ = ctx
}
`
	runWant(t, "ctxthread_renamed.go", src, []*Analyzer{CtxThread})
}

func TestCtxThreadIgnoresOtherPackages(t *testing.T) {
	const src = `package plan

import "context"

func helper() {
	_ = context.Background()
}
`
	diags, err := RunSource("ctxthread_plan.go", src, []*Analyzer{CtxThread})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("ctxthread should only run in engine/fault, got %v", diags)
	}
}

func TestIgnoreDirectives(t *testing.T) {
	// A well-formed ignore suppresses exactly its analyzer; a malformed one
	// (missing the reason) is itself reported and suppresses nothing.
	const src = `package engine

func suppressed() {
	//lint:ignore invariantpanic fixture demonstrates suppression
	panic("boom")
}

func wrongAnalyzer() {
	//lint:ignore ctxthread suppressing the wrong analyzer does nothing
	panic("boom")
}

func malformed() {
	//lint:ignore invariantpanic
	panic("boom")
}
`
	diags, err := RunSource("ignore_fixture.go", src, []*Analyzer{InvariantPanic})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Analyzer+": "+d.Message)
	}
	joined := strings.Join(msgs, "\n")
	if len(diags) != 3 {
		t.Fatalf("want 3 diagnostics (2 panics + 1 malformed directive), got %d:\n%s", len(diags), joined)
	}
	if !strings.Contains(joined, "directive: malformed lint:ignore") {
		t.Errorf("missing malformed-directive diagnostic:\n%s", joined)
	}
	if got := strings.Count(joined, "panic without"); got != 2 {
		t.Errorf("want the wrongAnalyzer and malformed panics reported, got %d panic diagnostics:\n%s", got, joined)
	}
}

func TestRunDirOnRealPackage(t *testing.T) {
	// The lint package itself must lint clean under the full suite.
	diags, err := RunDir(".", Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("internal/lint should be clean, got:\n%v", diags)
	}
}

func TestModuleIsLintClean(t *testing.T) {
	// The CI gate in test form: every package of the module is clean under
	// the full suite. New violations fail here
	// before they fail in CI.
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	dirs, err := PackageDirs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("module walk found only %d package dirs; wrong root?", len(dirs))
	}
	for _, dir := range dirs {
		diags, err := RunDir(dir, Analyzers())
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
