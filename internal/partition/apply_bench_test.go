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

// BenchmarkPartitionIndex prices the partition index of Section 2.3 on
// its own: every index partition.Apply builds for TPC-H's SD design at sf
// 0.01 on four partitions, one per PREF table, over its referenced
// table's stored rows. The cost is reported per indexed row.
func BenchmarkPartitionIndex(b *testing.B) {
	d := tpch.Generate(0.01, 42)
	v, err := bench.TPCHVariant(d, 4, "SD")
	if err != nil {
		b.Fatal(err)
	}
	cfg := v.Groups[0].Config
	pdb, err := partition.Apply(d.DB, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var refs []*partition.TableScheme
	rows := 0
	for _, name := range cfg.Names() {
		if ts := cfg.Scheme(name); ts.Method == partition.Pref {
			refs = append(refs, ts)
			rows += pdb.Tables[ts.RefTable].StoredRows()
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ts := range refs {
			if _, err := partition.PartitionIndex(pdb.Tables[ts.RefTable], ts.Pred.ReferencedCols); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/row")
}
