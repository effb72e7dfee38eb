package design_test

import (
	"runtime"
	"testing"

	"pref/internal/design"
	"pref/internal/graph"
	"pref/internal/tpch"
)

// BenchmarkSchemaDriven prices the schema-driven design on its own, as the
// served SD variant runs it: TPC-H at sf 0.01 without the small replicated
// tables, four partitions, exact histograms. Each iteration builds every
// histogram afresh, so the cost is reported per row of the designed
// tables.
func BenchmarkSchemaDriven(b *testing.B) {
	db := tpch.Generate(0.01, 42).DB.Without(tpch.SmallTables()...)
	rows := float64(db.TotalRows())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := design.SchemaDriven(db, design.SDOptions{Parts: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * rows
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/row")
}

// BenchmarkSDEstimation prices SD's search alone: the same data as
// BenchmarkSchemaDriven, with every histogram it reads built before the
// clock starts, so an iteration is Solve (Listing 1) over each MAST —
// candidate configurations, matching each histogram pair once, and the
// estimator's sums. The cost is reported per row of the designed tables.
func BenchmarkSDEstimation(b *testing.B) {
	db := tpch.Generate(0.01, 42).DB.Without(tpch.SmallTables()...)
	sizes := design.SizesOf(db)
	trees := schemaTrees(db)
	hp := design.NewHistProvider(db, 0, 0)
	hp.Prefetch(trees)
	rows := float64(db.TotalRows())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hp.ForgetMatches()
		for _, tree := range trees {
			if _, err := design.Solve([][]*graph.Graph{{tree}}, db.Schema, sizes, hp, 4, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * rows
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/row")
}
