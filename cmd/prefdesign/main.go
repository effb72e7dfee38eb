// Command prefdesign runs the automated partitioning design algorithms of
// the paper on a TPC-H or TPC-DS database and prints the resulting
// configuration with its data-locality and data-redundancy.
//
// Usage:
//
//	prefdesign -benchmark tpch -algo sd -parts 10 -sf 0.01
//	prefdesign -benchmark tpcds -algo wd -parts 10
//	prefdesign -benchmark tpch -algo sd -no-redundancy -sample 0.1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"pref"
	"pref/internal/bench"
	"pref/internal/design"
	"pref/internal/tpcds"
	"pref/internal/tpch"
)

func main() {
	var (
		benchmark = flag.String("benchmark", "tpch", "schema/data to design for: tpch | tpcds")
		algo      = flag.String("algo", "sd", "design algorithm: sd (schema-driven) | wd (workload-driven)")
		parts     = flag.Int("parts", 10, "number of partitions / nodes")
		sf        = flag.Float64("sf", 0.01, "TPC-H scale factor (micro scale)")
		dssf      = flag.Float64("dssf", 1.0, "TPC-DS scale factor (micro scale)")
		seed      = flag.Int64("seed", 42, "generator seed")
		sample    = flag.Float64("sample", 1.0, "histogram sampling rate in (0,1]")
		noRed     = flag.Bool("no-redundancy", false, "forbid redundancy on all designed tables")
		keepSmall = flag.Bool("keep-small", false, "keep small tables in the design instead of replicating them")
		out       = flag.String("o", "", "write the resulting configuration(s) as JSON to this file")
	)
	flag.Parse()

	if err := run(*benchmark, *algo, *parts, *sf, *dssf, *seed, *sample, *noRed, *keepSmall, *out); err != nil {
		fmt.Fprintln(os.Stderr, "prefdesign:", err)
		os.Exit(1)
	}
}

func run(benchmark, algo string, parts int, sf, dssf float64, seed int64, sample float64, noRed, keepSmall bool, outPath string) error {
	if err := errors.Join(bench.CheckScale("-sf", sf), bench.CheckScale("-dssf", dssf)); err != nil {
		return err
	}
	var (
		db       *pref.Database
		small    []string
		workload []pref.Query
	)
	switch benchmark {
	case "tpch":
		t := tpch.Generate(sf, seed)
		db = t.DB
		small = tpch.SmallTables()
		workload = tpch.Workload()
	case "tpcds":
		t := tpcds.Generate(dssf, seed)
		db = t.DB
		small = tpcds.SmallTables()
		workload = tpcds.Workload()
	default:
		return fmt.Errorf("unknown benchmark %q", benchmark)
	}
	fmt.Printf("database: %s, %d tables, %d rows, %d partitions\n",
		benchmark, len(db.Schema.TableNames()), db.TotalRows(), parts)

	designDB := db
	if !keepSmall {
		designDB = db.Without(small...)
		fmt.Printf("replicating small tables: %s\n", strings.Join(small, ", "))
		workload = design.FilterWorkload(workload, small)
	}

	switch algo {
	case "sd":
		opt := pref.SDOptions{Parts: parts, SampleRate: sample, SampleSeed: seed}
		if noRed {
			opt.NoRedundancy = designDB.Schema.TableNames()
		}
		d, err := pref.SchemaDriven(designDB, opt)
		if err != nil {
			return err
		}
		fmt.Printf("\nschema-driven design (seeds: %s)\n%s", strings.Join(d.Seeds, ", "), d.Config)
		fmt.Printf("\ndata-locality DL = %.4f\n", d.DL)
		fmt.Printf("estimated data-redundancy DR = %.4f\n", d.Est.DR())

		cfg := d.Config.Clone()
		if !keepSmall {
			for _, tbl := range small {
				cfg.SetReplicated(tbl)
			}
		}
		pdb, err := pref.Apply(db, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("actual data-redundancy DR = %.4f (designed tables only: %.4f)\n",
			pdb.DataRedundancy(), actualDesignedDR(pdb, designDB))
		if outPath != "" {
			if err := writeJSON(outPath, cfg); err != nil {
				return err
			}
			fmt.Println("configuration written to", outPath)
		}

	case "wd":
		opt := pref.WDOptions{Parts: parts, SampleRate: sample, SampleSeed: seed}
		if noRed {
			opt.NoRedundancy = designDB.Schema.TableNames()
		}
		wd, err := pref.WorkloadDriven(designDB, workload, opt)
		if err != nil {
			return err
		}
		fmt.Printf("\nworkload-driven design: %d query units → %d after containment merge → %d merged MASTs\n",
			wd.UnitsBeforeMerge, wd.UnitsAfterPhase1, len(wd.Groups))
		for i, g := range wd.Groups {
			fmt.Printf("\ngroup %d (%d queries: %s)\n%s",
				i, len(g.Queries), strings.Join(g.Queries, ", "), g.PC.Config)
		}
		dr, err := wd.EstimatedDR(design.SizesOf(designDB))
		if err != nil {
			return err
		}
		fmt.Printf("\nestimated global data-redundancy DR = %.4f\n", dr)
		if outPath != "" {
			cfgs := make([]*pref.Config, len(wd.Groups))
			for i, g := range wd.Groups {
				cfgs[i] = g.PC.Config
			}
			if err := writeJSON(outPath, cfgs); err != nil {
				return err
			}
			fmt.Println("group configurations written to", outPath)
		}

	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	return nil
}

// writeJSON marshals v (a Config or a slice of them) with indentation.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// actualDesignedDR reports redundancy over the designed (non-replicated)
// tables only.
func actualDesignedDR(pdb *pref.PartitionedDatabase, designDB *pref.Database) float64 {
	stored, orig := 0, 0
	for _, name := range designDB.Schema.TableNames() {
		stored += pdb.Tables[name].StoredRows()
		orig += designDB.Tables[name].Len()
	}
	if orig == 0 {
		return 0
	}
	return float64(stored)/float64(orig) - 1
}
