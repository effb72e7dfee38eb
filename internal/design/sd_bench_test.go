package design_test

import (
	"runtime"
	"testing"

	"pref/internal/design"
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
