package engine

import (
	"context"
	"testing"

	"pref/internal/partition"
	"pref/internal/plan"
)

var meteringSink *Result

// BenchmarkExecuteMetering prices the recording layer: whole-query
// ns/op and allocs/op with Trace off (counters only) and on (counters
// plus the assembled tree), on a scan→filter→aggregate plan and a
// two-join plan over the all-hashed design, whose joins need exchanges.
// The data is tiny (225 rows) so metering is a visible share of the
// total; "plan_ops" is the operator count the per-operator budget
// divides by.
func BenchmarkExecuteMetering(b *testing.B) {
	plans := []struct {
		name string
		mk   func() plan.Node
	}{
		{"scan-filter-agg", func() plan.Node {
			f := plan.Filter(plan.Scan("lineitem", "l"), plan.Gt(plan.Col("l.qty"), plan.Lit(2)))
			return plan.Aggregate(f, []string{"l.orderkey"}, plan.Count("n"), plan.Sum(plan.Col("l.qty"), "q"))
		}},
		{"two-join", func() plan.Node {
			lo := plan.Join(plan.Scan("lineitem", "l"), plan.Scan("orders", "o"),
				plan.Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
			loc := plan.Join(lo, plan.Scan("customer", "c"),
				plan.Inner, []string{"o.custkey"}, []string{"c.custkey"})
			return plan.Aggregate(loc, []string{"c.nationkey"},
				plan.Count("n"), plan.Max(plan.Col("l.qty"), "mx"))
		}},
	}
	db := testDB(b)
	cfg := testConfigs(4)["all-hashed"]
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, pl := range plans {
		rw, err := plan.Rewrite(pl.mk(), db.Schema, cfg, plan.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ops := 0
		var count func(n plan.Node)
		count = func(n plan.Node) {
			ops++
			for _, c := range n.Children() {
				count(c)
			}
		}
		count(rw.Root)
		for _, mode := range []struct {
			name  string
			trace bool
		}{{"off", false}, {"on", true}} {
			b.Run(pl.name+"/trace="+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := ExecuteCtx(context.Background(), rw, pdb, ExecOptions{Trace: mode.trace})
					if err != nil {
						b.Fatal(err)
					}
					meteringSink = res
				}
				b.ReportMetric(float64(ops), "plan_ops")
			})
		}
	}
}
