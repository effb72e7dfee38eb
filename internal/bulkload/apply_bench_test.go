package bulkload_test

import (
	"runtime"
	"testing"

	"pref/internal/bench"
	"pref/internal/bulkload"
	"pref/internal/tpch"
	"pref/internal/value"
)

// BenchmarkLoaderApply prices the write path on its own in the shape of the
// benchmark's mixed_rw writer: over TPC-H at sf 0.01 under the SD design,
// four partitions, every iteration commits two batches — ten new orders
// cloned from stored ones under fresh keys, then their lineitems — and the
// cost is reported per inserted row. Each batch publishes an epoch, so the
// copy-on-write of every partition it touches is part of the price.
func BenchmarkLoaderApply(b *testing.B) {
	d := tpch.Generate(0.01, 42)
	v, err := bench.TPCHVariant(d, 4, "SD")
	if err != nil {
		b.Fatal(err)
	}
	m, err := bench.Materialize(v, d.DB)
	if err != nil {
		b.Fatal(err)
	}
	loader := bulkload.NewLoader(m.PDBs[0], v.Groups[0].Config)
	orders := d.DB.Tables["orders"].Rows
	lines := map[int64][]value.Tuple{}
	nextKey := int64(0)
	for _, l := range d.DB.Tables["lineitem"].Rows {
		lines[l[0]] = append(lines[l[0]], l)
	}
	for _, o := range orders {
		nextKey = max(nextKey, o[0]+1)
	}

	var before, after runtime.MemStats
	inserted := 0
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var newOrders, newLines []bulkload.Op
		for k := 0; k < 10; k++ {
			tmpl := orders[(i*10+k)*7919%len(orders)]
			row := tmpl.Clone()
			row[0] = nextKey
			newOrders = append(newOrders, bulkload.Insert("orders", row))
			for _, lt := range lines[tmpl[0]] {
				l := lt.Clone()
				l[0] = nextKey
				newLines = append(newLines, bulkload.Insert("lineitem", l))
			}
			nextKey++
		}
		for _, ops := range [][]bulkload.Op{newOrders, newLines} {
			if _, err := loader.Apply(ops...); err != nil {
				b.Fatal(err)
			}
			inserted += len(ops)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(inserted), "ns/row")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(inserted), "B/row")
}
