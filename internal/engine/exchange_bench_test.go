package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/trace"
	"pref/internal/value"
)

// BenchmarkExchange prices the exchange layer on its own: a 16-column table
// hashed on its first column is re-partitioned on its second by the columnar
// Repartition operator, driven directly (no join, no aggregate, no Result
// boundary), once with 3 of the child's columns recorded as live and once
// with all 16. It reports the operator's cost per input row, the bytes the
// meter charged per input row, and allocations per input row; three of four
// rows change node, so shipped-B/row is 6 × live columns.
func BenchmarkExchange(b *testing.B) {
	const parts, rows, width = 4, 40_000, 16
	cols := make([]catalog.Column, width)
	for c := range cols {
		cols[c] = catalog.Column{Name: fmt.Sprintf("c%d", c), Kind: value.Int}
	}
	s := catalog.NewSchema("exchange")
	s.MustAddTable(catalog.MustTable("t", cols, "c0"))
	db := table.NewDatabase(s)
	for i := int64(0); i < rows; i++ {
		row := make(value.Tuple, width)
		for c := range row {
			row[c] = i*int64(c+1) + int64(c)
		}
		db.Tables["t"].MustAppend(row)
	}
	cfg := partition.NewConfig(parts)
	cfg.SetHash("t", "c0")
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		b.Fatal(err)
	}

	scan := plan.Scan("t", "t")
	rep := &plan.RepartitionNode{Child: scan, Cols: []string{"t.c1"}}
	full := make(plan.Schema, width)
	for c := range full {
		full[c] = plan.Field{Name: plan.Qualify("t", cols[c].Name), Kind: value.Int}
	}
	dst := make([]int, parts)
	for p := range dst {
		dst[p] = p
	}
	for _, live := range []plan.Schema{{full[1], full[5], full[9]}, full} {
		rw := &plan.Rewritten{
			Root:    rep,
			Schemas: map[plan.Node]plan.Schema{scan: full, rep: live},
		}
		b.Run(fmt.Sprintf("live=%d", len(live)), func(b *testing.B) {
			var before, after runtime.MemStats
			var shipped int64
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				ex := &executor{
					rw: rw, pdb: pdb, n: parts, ctx: ctx, cancel: cancel,
					execDst: dst, down: make([]bool, parts), tb: trace.NewBuilder(parts, 0),
				}
				_, err := ex.evalVec(rep)
				cancel()
				if err != nil {
					b.Fatal(err)
				}
				ex.owed.release()
				shipped = ex.tb.Totals().BytesShipped
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			total := float64(b.N) * rows
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
			b.ReportMetric(float64(shipped)/rows, "shipped-B/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/row")
		})
	}
}
