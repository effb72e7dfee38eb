package tpch

import (
	"runtime"
	"testing"
)

// BenchmarkGenerate prices the generator on its own: TPC-H at sf 0.01,
// seed 42, reported per generated row.
func BenchmarkGenerate(b *testing.B) {
	var before, after runtime.MemStats
	rows := 0
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = Generate(0.01, 42).DB.TotalRows()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/row")
}
