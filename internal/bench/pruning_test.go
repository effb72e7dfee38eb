package bench

import (
	"reflect"
	"testing"

	"pref/internal/check"
	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/tpch"
	"pref/internal/trace"
)

// Column pruning over the TPC-H plans: what the exchanges of a known plan
// carry, that they are charged for exactly that, and that nothing hidden or
// dead crosses a node boundary under any variant.

// walkPlan visits every operator of a physical plan, pre-order.
func walkPlan(n plan.Node, visit func(plan.Node)) {
	visit(n)
	for _, c := range n.Children() {
		walkPlan(c, visit)
	}
}

func isExchange(n plan.Node) bool {
	switch n.(type) {
	case *plan.RepartitionNode, *plan.BroadcastNode, *plan.GatherNode:
		return true
	}
	return false
}

// unprunedWidth is how many columns n would produce with no pruning: scans
// hand out the table's columns (plus the two index vectors on a PREF table),
// joins concatenate, and projections and aggregations name their own.
func unprunedWidth(rw *plan.Rewritten, n plan.Node) int {
	switch n := n.(type) {
	case *plan.JoinNode:
		if n.Type == plan.Semi || n.Type == plan.Anti {
			return unprunedWidth(rw, n.Left)
		}
		return unprunedWidth(rw, n.Left) + unprunedWidth(rw, n.Right)
	case *plan.ScanNode, *plan.ProjectNode, *plan.AggregateNode, *plan.PartialAggNode, *plan.FinalAggNode:
		return len(rw.Schema(n))
	default:
		return unprunedWidth(rw, n.Children()[0])
	}
}

// TestPrunedExchangeSchemasQ3 pins, by hand, what each exchange of Q3 carries
// on the all-hashed design: its hash keys and the columns read above it. The
// rewrite sums lineitem per order before the join with orders (eager
// aggregation), so lineitem ships one revenue per order and partition, and
// orders travels once, with those sums, to meet customer.
func TestPrunedExchangeSchemasQ3(t *testing.T) {
	d := tpch.Generate(0.002, 7)
	v, err := TPCHVariant(d, 4, "AllHashed")
	if err != nil {
		t.Fatal(err)
	}
	rw, err := plan.Rewrite(d.Query("Q3"), d.DB.Schema, v.Groups[0].Config, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"Repartition(hash [o.custkey], dedup [])":  {"o.custkey", "o.orderdate", "o.shippriority", "l.orderkey", "revenue"},
		"Repartition(hash [l.orderkey], dedup [])": {"l.orderkey", "revenue"},
	}
	seen, exchanges := 0, 0
	walkPlan(rw.Root, func(n plan.Node) {
		if isExchange(n) {
			exchanges++
		}
		cols, ok := want[n.String()]
		if !ok {
			return
		}
		seen++
		if got := rw.Schema(n).Names(); !reflect.DeepEqual(got, cols) {
			t.Errorf("%s ships %v, want %v", n, got, cols)
		}
	})
	if seen != len(want) || exchanges != len(want) {
		t.Fatalf("fixture drift: found %d of %d expected exchanges among %d:\n%s", seen, len(want), exchanges, rw.Explain())
	}
}

// TestExchangesShipRecordedWidthTPCH executes the seven join queries of the
// benchmark's join_hashed workload on the all-hashed design and holds every
// exchange span to its recorded schema: bytes shipped are rows shipped × 8 ×
// the columns the rewrite recorded, and in total less than a quarter of what
// the same rows would weigh unpruned. A rewriter or engine change that goes
// back to shipping full-width rows fails here, at micro scale.
func TestExchangesShipRecordedWidthTPCH(t *testing.T) {
	d := tpch.Generate(0.002, 7)
	v, err := TPCHVariant(d, 4, "AllHashed")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Materialize(v, d.DB)
	if err != nil {
		t.Fatal(err)
	}
	var pruned, unpruned int64
	for _, query := range []string{"Q3", "Q5", "Q7", "Q10", "Q12", "Q18", "Q21"} {
		rw, err := plan.Rewrite(d.Query(query), d.DB.Schema, v.Groups[0].Config, plan.Options{})
		if err != nil {
			t.Fatalf("%s: rewrite: %v", query, err)
		}
		res, err := engine.ExecuteOpts(rw, m.PDBs[0], engine.ExecOptions{Trace: true})
		if err != nil {
			t.Fatalf("%s: execute: %v", query, err)
		}
		exchanges := 0
		// The trace mirrors the plan under its synthetic Result root.
		var walk func(plan.Node, *trace.OpTrace)
		walk = func(n plan.Node, ot *trace.OpTrace) {
			if isExchange(n) {
				exchanges++
				m := ot.Totals
				if want := m.RowsShipped * 8 * int64(len(rw.Schema(n))); m.BytesShipped != want {
					t.Errorf("%s: %s shipped %d B for %d rows, want %d (%d recorded columns)",
						query, n, m.BytesShipped, m.RowsShipped, want, len(rw.Schema(n)))
				}
				pruned += m.BytesShipped
				unpruned += m.RowsShipped * 8 * int64(unprunedWidth(rw, n))
			}
			for i, c := range n.Children() {
				walk(c, ot.Children[i])
			}
		}
		walk(rw.Root, res.Trace.Root.Children[0])
		if exchanges == 0 {
			t.Fatalf("%s: fixture drift: no exchange on the all-hashed design:\n%s", query, rw.Explain())
		}
	}
	if pruned == 0 || pruned*4 >= unpruned {
		t.Errorf("seven join queries shipped %d B, want under a quarter of the unpruned %d B", pruned, unpruned)
	}
}

// TestHiddenColumnsNeverShipTPCH is the invariant pruning establishes for the
// PREF index columns: dup columns are consumed by the dedup before a shipment
// and hasRef filters sit on base scans, so no exchange of any of the 22
// queries under any of the 7 variants records a hidden column — and the
// checker, whose dead-column rule re-derives liveness on its own, is silent
// on all 154 plans.
func TestHiddenColumnsNeverShipTPCH(t *testing.T) {
	d := tpch.Generate(0.002, 7)
	vs, err := TPCHVariants(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 7 {
		t.Fatalf("fixture drift: %d variants, want 7", len(vs))
	}
	for name, v := range vs {
		m, err := Materialize(v, d.DB)
		if err != nil {
			t.Fatal(err)
		}
		for _, query := range tpch.QueryNames {
			for _, opt := range []plan.Options{{}, {Stats: m.Stats[v.RouteFor(query)]}} {
				rw, err := plan.Rewrite(d.Query(query), d.DB.Schema, v.Groups[v.RouteFor(query)].Config, opt)
				if err != nil {
					t.Fatalf("%s/%s: rewrite: %v", name, query, err)
				}
				if err := check.Verify(rw); err != nil {
					t.Errorf("%s/%s: %v\n%s", name, query, err, rw.Explain())
				}
				walkPlan(rw.Root, func(n plan.Node) {
					if !isExchange(n) {
						return
					}
					for _, f := range rw.Schema(n) {
						if plan.IsHiddenCol(f.Name) {
							t.Errorf("%s/%s: %s carries hidden column %s across a node boundary", name, query, n, f.Name)
						}
					}
				})
			}
		}
	}
}
