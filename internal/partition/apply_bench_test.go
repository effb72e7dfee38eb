package partition_test

import (
	"runtime"
	"testing"

	"pref/internal/bench"
	"pref/internal/partition"
	"pref/internal/tpch"
)

// BenchmarkApply prices the offline partitioner on its own: TPC-H at sf
// 0.01 is partitioned four ways under the schema-driven PREF design (SD,
// which stores duplicates and builds a partition index per PREF edge) and
// under plain hashing (AllHashed), and the cost — time, bytes and
// allocations — is reported per stored row.
func BenchmarkApply(b *testing.B) {
	d := tpch.Generate(0.01, 42)
	for _, name := range []string{"SD", "AllHashed"} {
		v, err := bench.TPCHVariant(d, 4, name)
		if err != nil {
			b.Fatal(err)
		}
		cfg := v.Groups[0].Config
		b.Run(name, func(b *testing.B) {
			var before, after runtime.MemStats
			stored := 0
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pdb, err := partition.Apply(d.DB, cfg)
				if err != nil {
					b.Fatal(err)
				}
				stored = pdb.TotalStoredRows()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			total := float64(b.N) * float64(stored)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/row")
		})
	}
}
