package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestBatchLifetimeFixtures(t *testing.T) { runWantDir(t, BatchLifetime) }

// TestBatchOwnershipFixtures pins the write-side ownership checks (writes
// through shared, borrowed or retained batches) that batchlifetime absorbed
// from the former batchownership analyzer.
func TestBatchOwnershipFixtures(t *testing.T) {
	runWantIn(t, BatchLifetime, "batchlifetime_writes")
}

// TestBatchLifetimeSummariesGolden pins the interprocedural summaries the
// analyzer computes for the fixture package: one line per function with a
// tracked signature, bottom-up over the call graph. Run with -update to
// rewrite after a deliberate summary change.
func TestBatchLifetimeSummariesGolden(t *testing.T) {
	l, err := defaultLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "batchlifetime"))
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Pkg, TypesInfo: pkg.Info, Dir: pkg.Dir}
	got := newBatchSummaries(pass).String()

	goldenPath := filepath.Join("testdata", "batchlifetime_summaries.golden")
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
		t.Errorf("summary golden mismatch (re-run with -update after verifying):\n%s",
			diffGoldenLines(string(want), got))
	}
}

func diffGoldenLines(want, got string) string {
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

// TestRegressionRequiresBatchLifetime pins the engine's real error-path
// leaks (pre-fix evalProjectVec/evalRepartitionVec shapes) as a fixture
// that ONLY batchlifetime catches: the rest of the roster must stay silent
// on it, and batchlifetime alone must report exactly the want annotations.
func TestRegressionRequiresBatchLifetime(t *testing.T) {
	dir := filepath.Join("testdata", "src", "batchlifetime_regression")

	var others []*Analyzer
	for _, a := range Analyzers() {
		if a.Name != BatchLifetime.Name {
			others = append(others, a)
		}
	}
	diags, err := RunDir(dir, others)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("suite minus batchlifetime should be silent on the regression fixture, got: %s", d)
	}

	diags, err = RunDir(dir, []*Analyzer{BatchLifetime})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("batchlifetime found nothing on the regression fixture")
	}
	src, err := os.ReadFile(filepath.Join(dir, "regression.go"))
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, "regression.go", wantsOf(t, string(src)), diags)
}

// TestModuleIsBatchLifetimeClean is the analyzer's own strict gate: every
// package in the module is free of batch lifetime findings, with no
// baseline. The engine's error-path releases (PR 9) are what keep it green.
func TestModuleIsBatchLifetimeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	dirs, err := PackageDirs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		diags, err := RunDir(dir, []*Analyzer{BatchLifetime})
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
