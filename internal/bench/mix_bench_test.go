package bench

import (
	"context"
	"testing"

	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/tpch"
)

// BenchmarkJoinPrefMix executes the benchmark's join_pref mix in process:
// Q3, Q5, Q7, Q10, Q12, Q18 and Q21 on SD at sf 0.05 on 4 nodes, rewritten
// once with the statistics of the materialized design, as a server's plan
// cache holds them. One op executes all seven; sim_ms is the mean simulated
// time per query, the figure the benchmark reports as sim_ms_per_query.
func BenchmarkJoinPrefMix(b *testing.B) {
	d := tpch.Generate(0.05, 42)
	v, err := TPCHVariant(d, 4, "SD")
	if err != nil {
		b.Fatal(err)
	}
	m, err := Materialize(v, d.DB)
	if err != nil {
		b.Fatal(err)
	}
	mix := []string{"Q3", "Q5", "Q7", "Q10", "Q12", "Q18", "Q21"}
	stats := m.GroupStats()
	plans := make([]*plan.Rewritten, len(mix))
	pdbs := make([]int, len(mix))
	for i, q := range mix {
		gi := v.RouteFor(q)
		if plans[i], err = plan.Rewrite(d.Query(q), d.DB.Schema, v.Groups[gi].Config, plan.Options{Stats: stats[gi]}); err != nil {
			b.Fatal(err)
		}
		pdbs[i] = gi
	}
	var sim float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim = 0
		for qi, rw := range plans {
			res, err := engine.ExecuteCtx(context.Background(), rw, m.PDBs[pdbs[qi]], engine.ExecOptions{})
			if err != nil {
				b.Fatal(err)
			}
			sim += ms(engine.DefaultCostModel().Simulate(res.Stats))
		}
	}
	b.ReportMetric(sim/float64(len(plans)), "sim_ms")
}
