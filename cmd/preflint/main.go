// Command preflint runs the repository's custom analyzers (internal/lint)
// over the module and exits nonzero if any diagnostic fires. It is the CI
// companion to go vet: vet checks generic Go mistakes, preflint checks
// this codebase's own invariants — panic policy, context threading,
// and publish ordering (the atomic epoch store is a top-level statement
// and nothing after it mutates what it publishes).
//
// An analyzer name retired from the roster is unknown to -only/-skip and
// exits 2: atomicdiscipline, batchownership; batchlifetime, whose pooled
// batch leaks and double releases the engine's evalVec rules out by
// construction and the pool-balance tests catch; partownership,
// shipaccounting and goroutinescope, whose hazards (cross-partition
// access, unmetered shipment, unjoined fan-out) tier-1 runtime tests
// catch; and snapshotdiscipline, intentprotocol and happensbefore, whose
// hazards the write path's design or its deterministic tests rule out;
// propalias, whose aliased Prop column lists plan.Prop rules out by
// owning them; and batchwrite, whose writes through a received batch do
// not compile outside package batch, which keeps a Batch's columns and
// selection vector unexported. The retired -sarif flag exits 2 as well.
//
// Usage:
//
//	preflint [flags] [dir...]   lint the packages rooted at each dir (default ".")
//	preflint -list              print the analyzers and their docs
//
// Flags:
//
//	-json                  emit findings as a JSON report on stdout, with
//	                       per-analyzer wall time under "timings_ms"
//	-only NAMES            run only these analyzers (comma-separated)
//	-skip NAMES            run all but these analyzers (comma-separated)
//
// Exit status: 0 clean, 1 findings, 2 operational error (unparseable
// package, bad flag, unknown analyzer name).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pref/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	only := flag.String("only", "", "comma-separated analyzers to run (default: all)")
	skip := flag.String("skip", "", "comma-separated analyzers to leave out")
	flag.Parse()

	analyzers, err := lint.SelectAnalyzers(lint.Analyzers(), *only, *skip)
	if err != nil {
		fatal(err)
	}
	if *list {
		width := 0
		for _, a := range analyzers {
			if len(a.Name) > width {
				width = len(a.Name)
			}
		}
		for _, a := range analyzers {
			fmt.Printf("%-*s %s\n", width, a.Name, a.Doc)
		}
		return
	}

	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var diags []lint.Diagnostic
	timings := lint.Timings{}
	for _, root := range roots {
		// Accept the conventional "./..." spelling so CI can invoke
		// preflint like any go tool.
		root = filepath.Clean(root)
		if base := filepath.Base(root); base == "..." {
			root = filepath.Dir(root)
		}
		dirs, err := lint.PackageDirs(root)
		if err != nil {
			fatal(err)
		}
		for _, dir := range dirs {
			ds, err := lint.RunDirTimed(dir, analyzers, timings)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", dir, err))
			}
			diags = append(diags, ds...)
		}
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, diags, timings); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "preflint: %v\n", err)
	os.Exit(2)
}
