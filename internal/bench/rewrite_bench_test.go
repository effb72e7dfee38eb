package bench

import (
	"testing"

	"pref/internal/plan"
	"pref/internal/tpch"
)

// BenchmarkRewrite prices the §2.2 rewrite on its own: the 22 TPC-H queries,
// built once, rewritten with plan.Options{} (what prefserve passes) against
// the all-hashed design, where Q3 and Q18 rewrite both an eager and a lazy
// form, and against SD. One op rewrites all 22, with column pruning and
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
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for qi, q := range queries {
					cfg := v.Groups[v.RouteFor(tpch.QueryNames[qi])].Config
					if _, err := plan.Rewrite(q, d.DB.Schema, cfg, plan.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
		})
	}
}
