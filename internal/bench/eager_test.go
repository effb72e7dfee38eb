package bench

import (
	"fmt"
	"reflect"
	"testing"

	"pref/internal/check"
	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/tpch"
	"pref/internal/value"
)

// TestEagerAggregationTPCH sweeps the 22 queries over the 7 variants, with
// and without the statistics of their data, and holds eager aggregation to
// where it pays: the rewrite keeps the eager form for Q3 and Q18 on the all-hashed
// design and nowhere else — every PREF design co-locates those joins, so the
// sums would only add exchanges. Every plan passes the checker and answers
// what the same query answers on one node.
func TestEagerAggregationTPCH(t *testing.T) {
	d := tpch.Generate(0.002, 7)
	vs, err := TPCHVariants(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	refs := singleNodeRows(t, d)
	want := map[string]bool{"AllHashed/Q3": true, "AllHashed/Q18": true}
	for name, v := range vs {
		m, err := Materialize(v, d.DB)
		if err != nil {
			t.Fatal(err)
		}
		for _, query := range tpch.QueryNames {
			for _, opt := range []plan.Options{{}, {Stats: m.Stats[v.RouteFor(query)]}} {
				key := fmt.Sprintf("%s/%s", name, query)
				gi := v.RouteFor(query)
				rw, err := plan.Rewrite(d.Query(query), d.DB.Schema, v.Groups[gi].Config, opt)
				if err != nil {
					t.Fatalf("%s (stats %v): rewrite: %v", key, opt.Stats != nil, err)
				}
				if got := eagerAggregated(d.Query(query), rw.Root); got != want[key] {
					t.Errorf("%s (stats %v): eager form kept = %v, want %v\n%s", key, opt.Stats != nil, got, want[key], rw.Explain())
				}
				if err := check.Verify(rw); err != nil {
					t.Errorf("%s (stats %v): %v\n%s", key, opt.Stats != nil, err, rw.Explain())
				}
				res, err := engine.Execute(rw, m.PDBs[gi])
				if err != nil {
					t.Fatalf("%s (stats %v): execute: %v", key, opt.Stats != nil, err)
				}
				res.SortRows()
				if ref := refs[query]; !reflect.DeepEqual(res.Rows, ref) {
					t.Errorf("%s (stats %v): %d rows differ from single-node execution's %d\n%s",
						key, opt.Stats != nil, len(res.Rows), len(ref), rw.Explain())
				}
			}
		}
	}
}

// singleNodeRows runs every TPC-H query on one node.
func singleNodeRows(t *testing.T, d *tpch.TPCH) map[string][]value.Tuple {
	t.Helper()
	one, err := TPCHVariant(d, 1, "AllReplicated")
	if err != nil {
		t.Fatal(err)
	}
	single, err := Materialize(one, d.DB)
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string][]value.Tuple{}
	for _, query := range tpch.QueryNames {
		if refs[query], err = runOn(d, one, single, query); err != nil {
			t.Fatal(err)
		}
	}
	return refs
}

// runOn rewrites and executes a query on a variant's routed group, returning
// its sorted rows.
func runOn(d *tpch.TPCH, v *Variant, m *Materialized, query string) ([]value.Tuple, error) {
	gi := v.RouteFor(query)
	rw, err := plan.Rewrite(d.Query(query), d.DB.Schema, v.Groups[gi].Config, plan.Options{})
	if err != nil {
		return nil, err
	}
	res, err := engine.Execute(rw, m.PDBs[gi])
	if err != nil {
		return nil, err
	}
	res.SortRows()
	return res.Rows, nil
}

// eagerAggregated reports whether the physical plan aggregates by a
// group-by list that no aggregate of the logical query names: the sums of
// an eager form, grouped by its summed input's join key.
func eagerAggregated(logical, physical plan.Node) bool {
	named := map[string]bool{}
	walkPlan(logical, func(n plan.Node) {
		if a, ok := n.(*plan.AggregateNode); ok {
			named[fmt.Sprint(a.GroupBy)] = true
		}
	})
	eager := false
	walkPlan(physical, func(n plan.Node) {
		switch a := n.(type) {
		case *plan.AggregateNode:
			eager = eager || !named[fmt.Sprint(a.GroupBy)]
		case *plan.FinalAggNode:
			eager = eager || !named[fmt.Sprint(a.GroupBy)]
		}
	})
	return eager
}
