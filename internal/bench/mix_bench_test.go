package bench

import (
	"context"
	"testing"

	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/tpch"
)

// BenchmarkJoinPrefMix executes the benchmark's join mix in process: Q3,
// Q5, Q7, Q10, Q12, Q18 and Q21 at sf 0.05 on 4 nodes, on SD (join_pref's
// design) and on AllHashed (join_hashed's), one sub-benchmark each,
// rewritten once with the statistics of the materialized design, as a
// server's plan cache holds them. One op executes all seven; sim_ms is the
// mean simulated time per query and shipped_MB the mean megabytes (10^6 B)
// shipped per query, the figures the benchmark reports as sim_ms_per_query
// and shipped_mb_per_query.
func BenchmarkJoinPrefMix(b *testing.B) {
	d := tpch.Generate(0.05, 42)
	for _, name := range []string{"SD", "AllHashed"} {
		b.Run(name, func(b *testing.B) { benchMix(b, d, name) })
	}
}

// benchMix executes joinMix on variant name of d at 4 nodes, b.N times.
func benchMix(b *testing.B, d *tpch.TPCH, name string) {
	v, err := TPCHVariant(d, 4, name)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Materialize(v, d.DB)
	if err != nil {
		b.Fatal(err)
	}
	stats := m.GroupStats()
	plans := make([]*plan.Rewritten, len(joinMix))
	pdbs := make([]int, len(joinMix))
	for i, q := range joinMix {
		gi := v.RouteFor(q)
		if plans[i], err = plan.Rewrite(d.Query(q), d.DB.Schema, v.Groups[gi].Config, plan.Options{Stats: stats[gi]}); err != nil {
			b.Fatal(err)
		}
		pdbs[i] = gi
	}
	var sim float64
	var shipped int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, shipped = 0, 0
		for qi, rw := range plans {
			res, err := engine.ExecuteCtx(context.Background(), rw, m.PDBs[pdbs[qi]], engine.ExecOptions{})
			if err != nil {
				b.Fatal(err)
			}
			sim += ms(engine.DefaultCostModel().Simulate(res.Stats))
			shipped += res.Stats.BytesShipped
		}
	}
	b.ReportMetric(sim/float64(len(plans)), "sim_ms")
	b.ReportMetric(float64(shipped)/1e6/float64(len(plans)), "shipped_MB")
}
