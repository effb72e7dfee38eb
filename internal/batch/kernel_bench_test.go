package batch

import (
	"testing"

	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/tpch"
)

// lineitemPartition generates TPC-H sf 0.05 (seed 42) and returns it with
// its lineitem table hashed on orderkey over 4 nodes, whose partition 0 the
// execution-path layer benchmarks read.
func lineitemPartition(b *testing.B) (*tpch.TPCH, *table.Partitioned) {
	b.Helper()
	d := tpch.Generate(0.05, 42)
	var others []string
	for _, name := range d.DB.Schema.TableNames() {
		if name != "lineitem" {
			others = append(others, name)
		}
	}
	cfg := partition.NewConfig(4)
	cfg.SetHash("lineitem", "orderkey")
	pdb, err := partition.Apply(d.DB.Without(others...), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d, pdb.Tables["lineitem"]
}

// lineitemFilter returns the predicate of the Filter directly over the
// lineitem scan of plan n, or nil.
func lineitemFilter(n plan.Node) plan.BoolExpr {
	if f, ok := n.(*plan.FilterNode); ok {
		if s, ok := f.Child.(*plan.ScanNode); ok && s.Table == "lineitem" {
			return f.Pred
		}
	}
	for _, c := range n.Children() {
		if p := lineitemFilter(c); p != nil {
			return p
		}
	}
	return nil
}

// BenchmarkFilter prices the filter kernel over that lineitem partition, in
// the scan's batches, with the lineitem predicates of Q1 (one shipdate
// bound), Q6 (five column-vs-literal conjuncts) and Q12 (an IN, two
// column-vs-column comparisons and a two-sided receiptdate range): ns and
// allocs per input row.
func BenchmarkFilter(b *testing.B) {
	d, pt := lineitemPartition(b)
	sch := make(plan.Schema, pt.Meta.NumCols())
	for c, col := range pt.Meta.Columns {
		sch[c] = plan.Field{Name: "l." + col.Name, Kind: col.Kind}
	}
	proj := pt.Parts[0].Columns(pt.Meta.NumCols())
	bs := Chunks(proj.Cols[:pt.Meta.NumCols()])
	for _, q := range []string{"Q1", "Q6", "Q12"} {
		pred := lineitemFilter(d.Query(q))
		if pred == nil {
			b.Fatalf("%s filters no lineitem scan", q)
		}
		vp, err := plan.CompilePred(pred, sch)
		if err != nil {
			b.Fatal(err)
		}
		filter := func() {
			for _, in := range bs {
				Filter(in, vp)
			}
		}
		b.Run(q, func(b *testing.B) {
			allocs := testing.AllocsPerRun(1, filter)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				filter()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*proj.NRows), "ns/row")
			b.ReportMetric(allocs/float64(proj.NRows), "allocs/row")
		})
	}
}
