// Command prefquery runs one TPC-H query against a chosen partitioning
// variant, printing the rewritten physical plan (EXPLAIN with the
// Dup/Part properties of Section 2.2), the result sample, and the
// execution telemetry.
//
// Usage:
//
//	prefquery -q Q3                      # Q3 on the SD design
//	prefquery -q Q9 -variant CP          # compare against classical
//	prefquery -q Q5 -variant SD-paper -explain-only
//	prefquery -q Q4 -no-opt              # disable the Section 2.2 optimizations
//	prefquery -q Q3 -explain             # execute and print EXPLAIN ANALYZE
//	prefquery -q Q3 -trace-json t.json   # dump the span tree as JSON
//	prefquery -q Q9 -timeout 50ms        # deadline-bound execution
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"pref/internal/bench"
	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/tpch"
	"pref/internal/trace"
)

func main() {
	var (
		query       = flag.String("q", "Q3", "TPC-H query name (Q1..Q22)")
		variant     = flag.String("variant", "SD", "partitioning variant: CP | SD | SD-paper | SD-noRed | WD | AllHashed | AllReplicated")
		cfgPath     = flag.String("config", "", "load the partitioning configuration from a JSON file (overrides -variant)")
		sf          = flag.Float64("sf", 0.01, "TPC-H scale factor")
		parts       = flag.Int("parts", 10, "number of partitions")
		seed        = flag.Int64("seed", 42, "generator seed")
		explainOnly = flag.Bool("explain-only", false, "print the plan without executing")
		explain     = flag.Bool("explain", false, "execute with tracing and print EXPLAIN ANALYZE (per-operator, per-node actuals)")
		traceJSON   = flag.String("trace-json", "", "execute with tracing and write the span tree as JSON to this file (- for stdout)")
		noOpt       = flag.Bool("no-opt", false, "disable the dup/hasRef optimizations and pruning")
		maxRows     = flag.Int("rows", 10, "result rows to print")
		timeout     = flag.Duration("timeout", 0, "query deadline; expiry exits non-zero with the typed deadline error (0 = none)")
	)
	flag.Parse()

	l, err := load(*variant, *cfgPath, *sf, *parts, *seed)
	if err == nil {
		err = l.run(*query, *explainOnly, *noOpt, *maxRows, *explain, *traceJSON, *timeout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "prefquery:", err)
		if errors.Is(err, engine.ErrDeadlineExceeded) {
			// Distinct exit code for deadline expiry: scripts driving the
			// deadline-propagation path can tell a kill from a plain error.
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// loaded is one design materialized over generated TPC-H data, with the
// statistics its rewrites read: what every query runs against.
type loaded struct {
	t     *tpch.TPCH
	v     *bench.Variant
	m     *bench.Materialized
	stats []*plan.Stats
}

// load generates the data, builds the named variant or reads the -config
// file (which overrides both -variant and -parts), and materializes it.
func load(variant, cfgPath string, sf float64, parts int, seed int64) (*loaded, error) {
	if err := bench.CheckScale("-sf", sf); err != nil {
		return nil, err
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
		return nil, err
	}
	m, err := bench.Materialize(v, t.DB)
	if err != nil {
		return nil, err
	}
	return &loaded{t: t, v: v, m: m, stats: m.GroupStats()}, nil
}

// run rewrites one query for the loaded design and prints its physical
// plan; unless explainOnly, it then executes the plan and prints the
// result sample and the telemetry.
func (l *loaded) run(query string, explainOnly, noOpt bool, maxRows int, explain bool, traceJSON string, timeout time.Duration) error {
	gi := l.v.RouteFor(query)
	// The design's partition count, not the -parts flag: a -config file
	// overrides it.
	cfg := l.v.Groups[gi].Config
	fmt.Printf("%s on %s (group %d, %d partitions, DL=%.2f DR=%.2f)\n\n",
		query, l.v.Name, gi, cfg.NumPartitions, l.m.DL, l.m.DR)

	opt := plan.Options{Stats: l.stats[gi]}
	if noOpt {
		opt.DisableHasRefOpt = true
		opt.DisableDupIndex = true
		opt.DisablePruning = true
	}
	q, err := l.t.QueryErr(query)
	if err != nil {
		return err
	}
	rw, err := plan.Rewrite(q, l.t.DB.Schema, cfg, opt)
	if err != nil {
		return err
	}
	fmt.Println("physical plan:")
	fmt.Print(rw.Explain())
	if explainOnly {
		return nil
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := engine.ExecuteCtx(ctx, rw, l.m.PDBs[gi], engine.ExecOptions{Trace: explain || traceJSON != ""})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	res.SortRows()

	fmt.Printf("\n%d result rows", len(res.Rows))
	if len(res.Rows) > maxRows {
		fmt.Printf(" (showing %d)", maxRows)
	}
	fmt.Println(":")
	names := res.Schema.Names()
	fmt.Printf("  %v\n", names)
	for i, row := range res.Rows {
		if i >= maxRows {
			break
		}
		fmt.Printf("  %v\n", []int64(row))
	}

	if explain {
		fmt.Println("\nEXPLAIN ANALYZE:")
		fmt.Print(res.Trace.Render(trace.RenderOptions{Nodes: true}))
	}
	if traceJSON != "" {
		data, err := res.Trace.JSON()
		if err != nil {
			return err
		}
		if traceJSON == "-" {
			fmt.Println(string(data))
		} else if err := os.WriteFile(traceJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	cost := engine.DefaultCostModel()
	fmt.Printf("\ntelemetry: %d bytes shipped, %d rows shipped, %d repartitions, %d broadcasts\n",
		res.Stats.BytesShipped, res.Stats.RowsShipped, res.Stats.Repartitions, res.Stats.Broadcasts)
	fmt.Printf("           %d rows processed (max node %d)\n",
		res.Stats.RowsProcessed, res.Stats.MaxNodeRows)
	fmt.Printf("time:      wall %v, simulated cluster %v\n", wall.Round(time.Microsecond), cost.Simulate(res.Stats))
	return nil
}
