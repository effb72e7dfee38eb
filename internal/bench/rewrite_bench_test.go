package bench

import (
	"testing"

	"pref/internal/plan"
	"pref/internal/tpch"
)

// BenchmarkRewrite prices the §2.2 rewrite on its own: the 22 TPC-H queries,
// built once, rewritten against the all-hashed design, where Q3 and Q18
// rewrite both an eager and a lazy form, and against SD — with
// plan.Options{}, and with the statistics of the materialized design (what
// prefserve passes), where the rewrite also prices every misaligned join and
// both eager forms. One op rewrites all 22, with column pruning and
// runtime-filter placement; ns/query and allocs/query divide by 22.
func BenchmarkRewrite(b *testing.B) {
	d := tpch.Generate(0.002, 7)
	queries := make([]plan.Node, len(tpch.QueryNames))
	for i, q := range tpch.QueryNames {
		queries[i] = d.Query(q)
	}
	for _, name := range []string{"AllHashed", "SD"} {
		v, err := TPCHVariant(d, 4, name)
		if err != nil {
			b.Fatal(err)
		}
		m, err := Materialize(v, d.DB)
		if err != nil {
			b.Fatal(err)
		}
		stats := m.GroupStats()
		for _, priced := range []bool{false, true} {
			label := name
			if priced {
				label += "-stats"
			}
			b.Run(label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for qi, q := range queries {
						gi := v.RouteFor(tpch.QueryNames[qi])
						var opt plan.Options
						if priced {
							opt.Stats = stats[gi]
						}
						if _, err := plan.Rewrite(q, d.DB.Schema, v.Groups[gi].Config, opt); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
			})
		}
	}
}

// BenchmarkGatherStats prices the statistics pass a server runs at start-up
// over the partitioned database of the benchmark's SD and all-hashed
// designs at sf 0.05 on 4 nodes: ns/cell divides by the cells it reads, each
// stored row's columns and dup flag, one copy of a replicated table.
func BenchmarkGatherStats(b *testing.B) {
	d := tpch.Generate(0.05, 42)
	for _, name := range []string{"AllHashed", "SD"} {
		v, err := TPCHVariant(d, 4, name)
		if err != nil {
			b.Fatal(err)
		}
		m, err := Materialize(v, d.DB)
		if err != nil {
			b.Fatal(err)
		}
		pdb := m.PDBs[0]
		cells := 0
		for _, pt := range pdb.Tables {
			for i, p := range pdb.Snapshot().Parts(pt.Meta.Name) {
				if pt.Replicated && i > 0 {
					break
				}
				cells += p.Len() * (pt.Meta.NumCols() + 1)
			}
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.GatherStats(pdb)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
			b.ReportMetric(float64(cells), "cells")
		})
	}
}
