// Command prefcheck runs the internal/check static verifier offline: it
// builds a partitioning design (a named TPC-H variant or a JSON config),
// verifies the design itself, then rewrites every TPC-H query against it
// and re-proves the Section 2.2 invariants of each physical plan —
// property-algebra soundness, locality of every hash join, duplicate
// freedom, and slice-aliasing hygiene. Only a tiny database is generated,
// for the statistics the rewrite reads, and no query is executed, so it is
// cheap enough to run in CI.
//
// Usage:
//
//	prefcheck                          # all 22 queries against the SD design
//	prefcheck -variant WD -parts 20    # the workload-driven design
//	prefcheck -q Q5 -v                 # one query, printing the plan
//	prefcheck -config custom.json      # a hand-written configuration
package main

import (
	"flag"
	"fmt"
	"os"

	"pref/internal/bench"
	"pref/internal/check"
	"pref/internal/plan"
	"pref/internal/tpch"
)

func main() {
	var (
		variant = flag.String("variant", "SD", "partitioning variant: CP | SD | SD-paper | SD-noRed | WD | AllHashed | AllReplicated")
		cfgPath = flag.String("config", "", "load the partitioning configuration from a JSON file (overrides -variant)")
		query   = flag.String("q", "", "verify a single TPC-H query (default: all 22)")
		sf      = flag.Float64("sf", 0.001, "TPC-H scale factor (tiny default: only the catalog and the statistics matter)")
		parts   = flag.Int("parts", 10, "number of partitions")
		seed    = flag.Int64("seed", 42, "generator seed")
		noOpt   = flag.Bool("no-opt", false, "disable the dup/hasRef optimizations and pruning")
		verbose = flag.Bool("v", false, "print each verified plan")
	)
	flag.Parse()

	if err := run(*variant, *cfgPath, *query, *sf, *parts, *seed, *noOpt, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "prefcheck:", err)
		os.Exit(1)
	}
}

func run(variant, cfgPath, query string, sf float64, parts int, seed int64, noOpt, verbose bool) error {
	if err := bench.CheckScale("-sf", sf); err != nil {
		return err
	}
	t := tpch.Generate(sf, seed)
	var v *bench.Variant
	var err error
	if cfgPath != "" {
		v, err = bench.ConfigVariant(cfgPath, t.DB.Schema)
	} else {
		v, err = bench.TPCHVariant(t, parts, variant)
	}
	if err != nil {
		return err
	}
	// A -config file decides both, not the flags.
	variant, parts = v.Name, v.Groups[0].Config.NumPartitions

	// First the designs themselves: every group's configuration must be
	// well-formed (acyclic PREF chains, partitioned seeds, known columns,
	// equi-join-compatible predicate types).
	bad := 0
	for _, g := range v.Groups {
		if err := check.VerifyDesign(t.DB.Schema, g.Config); err != nil {
			fmt.Printf("design %s/%s: FAIL\n%v\n", variant, g.Name, indent(err))
			bad++
		} else if verbose {
			fmt.Printf("design %s/%s: ok\n", variant, g.Name)
		}
	}

	queries := tpch.QueryNames
	if query != "" {
		queries = []string{query}
	}
	// The rewrite prices its choices with statistics of the data: gather
	// them from the design applied to the generated tables, as the server
	// does at start-up.
	m, err := bench.Materialize(v, t.DB)
	if err != nil {
		return err
	}
	stats := m.GroupStats()
	var opt plan.Options
	if noOpt {
		opt.DisableHasRefOpt = true
		opt.DisableDupIndex = true
		opt.DisablePruning = true
	}

	for _, name := range queries {
		q, err := t.QueryErr(name)
		if err != nil {
			return err
		}
		gi := v.RouteFor(name)
		opt.Stats = stats[gi]
		rw, err := plan.Rewrite(q, t.DB.Schema, v.Groups[gi].Config, opt)
		if err != nil {
			fmt.Printf("%-4s rewrite: FAIL: %v\n", name, err)
			bad++
			continue
		}
		if err := check.Verify(rw); err != nil {
			fmt.Printf("%-4s verify: FAIL\n%v\n", name, indent(err))
			bad++
			continue
		}
		if verbose {
			fmt.Printf("%-4s ok\n%s", name, rw.Explain())
		} else {
			fmt.Printf("%-4s ok\n", name)
		}
	}

	if bad > 0 {
		return fmt.Errorf("%d check(s) failed on variant %s", bad, variant)
	}
	fmt.Printf("all checks passed: %d queries on %s (%d partitions)\n", len(queries), variant, parts)
	return nil
}

func indent(err error) string {
	out := ""
	for _, v := range check.ViolationsOf(err) {
		out += "    " + v.Error() + "\n"
	}
	if out == "" {
		out = "    " + err.Error() + "\n"
	}
	return out
}
