// Package lint is a small, stdlib-only static-analysis framework plus the
// repository's custom analyzers. The API is shaped like
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) so the
// analyzers could be ported to a real go/analysis driver verbatim, but it
// runs on go/ast + go/parser + go/types + go/importer alone: this
// repository builds with no external modules, so the x/tools dependency is
// deliberately gated out. Loader (loader.go) stands in for go/packages,
// type-checking module packages from source, so every analyzer sees full
// type information.
//
// The analyzers encode this codebase's own correctness rules:
//
//   - invariantpanic: panics and Must* shortcuts are reserved for declared
//     programmer-error invariants; each site needs a "// lint:invariant"
//     marker, and execution-path packages may not call Must* at all.
//   - ctxthread: per-partition work in the engine/fault execution paths
//     must thread the query's context.Context; minting a fresh
//     context.Background()/TODO() deep in the call tree would detach that
//     work from the query's deadline and cancellation.
//   - publishorder: the atomic epoch store is a release point, so all
//     bookkeeping must precede it. The store must be a top-level statement
//     of a goto-free function body and the function's only publish; then
//     the statements after it are exactly what runs after it, and none of
//     them may mutate the published receiver or the stored value.
//
// Hazards a type rules out have no analyzer: plan.Prop owns its column
// lists (unexported, copied on Set, read through clipped views), so no
// append through one Prop can corrupt another or a plan node; and a
// batch.Batch keeps its columns and selection vector unexported, handing
// out values and new batches only, so a write through a received batch
// (which scans share zero-copy across concurrent queries) does not compile
// outside package batch, directly or through a local view.
//
// Hazards a deterministic tier-1 runtime law already catches have no
// analyzer either: cross-partition access, unmetered shipments and unjoined
// fan-out fail the differential oracle, the exact metering tests and the
// trace conservation laws (check.VerifyTrace). So do pooled-batch leaks,
// double releases and use-after-release: the engine's evalVec is the only
// place a batch is released, its tests assert the pool balances after every
// query, and its verify mode checks each operator's one ownership decision.
//
// The write path's protocols other than publish ordering hold by
// construction: copy-on-write compares head partitions with the published
// Version by pointer, the cluster can only pin snapshots, and
// deterministic tests cover the intent log.
//
// Suppressions: a "//lint:ignore <analyzer> <reason>" comment on the
// diagnostic's line or the line above silences that analyzer there. A
// reason is mandatory; a malformed directive is itself a diagnostic.
//
// cmd/preflint is the driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one package's parsed, comment-preserving syntax plus its
// full type information to an analyzer run.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Dir       string
	reports   *[]Diagnostic
	current   string // analyzer name, set by the runner
}

// PkgName is the package's short name, e.g. "engine".
func (p *Pass) PkgName() string { return p.Pkg.Name() }

// Report records a finding at the given node.
func (p *Pass) Report(n ast.Node, format string, args ...any) {
	*p.reports = append(*p.reports, Diagnostic{
		Pos:      p.Fset.Position(n.Pos()),
		Analyzer: p.current,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named, documented check over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Analyzers is the repository's full analyzer suite, in the order the
// driver runs them.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		InvariantPanic, CtxThread, PublishOrder,
	}
}

// defaultLoader shares one Loader (and thus one type-checked view of the
// module and the standard library) across RunDir/RunSource calls.
var defaultLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

// RunDir type-checks the package of one directory (non-test files) and
// runs the analyzers over it. Diagnostics come back position-sorted, with
// lint:ignore suppressions already applied.
func RunDir(dir string, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunDirTimed(dir, analyzers, nil)
}

// RunDirTimed is RunDir with a per-analyzer wall-time sink: each analyzer's
// run time over the package is added to timings under its name. A nil sink
// records nothing.
func RunDirTimed(dir string, analyzers []*Analyzer, timings Timings) ([]Diagnostic, error) {
	l, err := defaultLoader()
	if err != nil {
		return nil, err
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, nil
	}
	return runPackage(pkg, analyzers, timings)
}

// RunSource analyzes a single in-memory file (test fixtures). The fixture
// must type-check on its own, importing at most the standard library.
func RunSource(filename, src string, analyzers []*Analyzer) ([]Diagnostic, error) {
	l, err := defaultLoader()
	if err != nil {
		return nil, err
	}
	pkg, err := l.LoadSource(filename, src)
	if err != nil {
		return nil, err
	}
	return RunPackage(pkg, analyzers)
}

// RunPackage runs the analyzers over one loaded package.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return runPackage(pkg, analyzers, nil)
}

func runPackage(pkg *Package, analyzers []*Analyzer, timings Timings) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Pkg,
		TypesInfo: pkg.Info, Dir: pkg.Dir, reports: &diags,
	}
	for _, a := range analyzers {
		pass.current = a.Name
		start := time.Now()
		err := a.Run(pass)
		timings.add(a.Name, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	diags = applyIgnores(pass, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// ignoreDirective is one parsed "//lint:ignore <analyzer> <reason>".
type ignoreDirective struct {
	analyzer string
	reason   string
}

// applyIgnores drops diagnostics suppressed by a lint:ignore directive on
// their own line or the line above, and reports malformed directives.
func applyIgnores(p *Pass, diags []Diagnostic) []Diagnostic {
	ignores := map[string]map[int][]ignoreDirective{} // file -> line -> directives
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				text := strings.TrimPrefix(cm.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "lint:ignore")
				if !ok {
					continue
				}
				pos := p.Fset.Position(cm.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "directive",
						Message:  "malformed lint:ignore: need \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				if ignores[pos.Filename] == nil {
					ignores[pos.Filename] = map[int][]ignoreDirective{}
				}
				ignores[pos.Filename][pos.Line] = append(ignores[pos.Filename][pos.Line],
					ignoreDirective{analyzer: fields[0], reason: strings.Join(fields[1:], " ")})
			}
		}
	}
	if len(ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, dir := range ignores[d.Pos.Filename][line] {
				if dir.analyzer == d.Analyzer {
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// markerLines returns every line covered by a comment containing the given
// marker (e.g. "lint:invariant"), in any comment group of any file.
func markerLines(p *Pass, marker string) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if !strings.Contains(cm.Text, marker) {
					continue
				}
				pos := p.Fset.Position(cm.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = map[int]bool{}
				}
				out[pos.Filename][pos.Line] = true
			}
		}
	}
	return out
}

// sanctioned reports whether a node carries the marker on its own line or
// the line directly above (the conventional placement).
func sanctioned(p *Pass, marked map[string]map[int]bool, n ast.Node) bool {
	pos := p.Fset.Position(n.Pos())
	lines := marked[pos.Filename]
	return lines[pos.Line] || lines[pos.Line-1]
}

// eachFuncDecl visits every function declaration with a body.
func eachFuncDecl(p *Pass, visit func(fn *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				visit(fn)
			}
		}
	}
}

// PackageDirs walks root and returns every directory containing at least
// one non-test .go file, skipping VCS metadata and testdata trees. Shared
// by the preflint driver and the module-wide self-test.
func PackageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "vendor":
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}
