package bench

import (
	"reflect"
	"testing"

	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/tpch"
	"pref/internal/trace"
)

// TestRuntimeFiltersTPCH runs the benchmark's query mixes at sf 0.01 on 4
// nodes, verified, and holds the runtime-filter rule to what it promises
// there: on the all-hashed design every filter it places drops rows, so the
// selectivity test emits no dead filter; on SD, where PREF co-locates the
// joins, the join and scan mixes place none; and every result equals the
// same query on one node. (TestHiddenColumnsNeverShipTPCH holds every plan,
// filters included, to the checker.)
func TestRuntimeFiltersTPCH(t *testing.T) {
	d := tpch.Generate(0.01, 42)
	joins := []string{"Q3", "Q5", "Q7", "Q10", "Q12", "Q18", "Q21"}
	one, err := TPCHVariant(d, 1, "AllReplicated") // every join local: no exchange, no filter
	if err != nil {
		t.Fatal(err)
	}
	single, err := Materialize(one, d.DB)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		variant     string
		mix         []string
		wantFilters bool
	}{
		{"AllHashed", joins, true},
		{"SD", joins, false},
		{"SD", []string{"Q1", "Q6", "Q15"}, false},
	} {
		v, err := TPCHVariant(d, 4, c.variant)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Materialize(v, d.DB)
		if err != nil {
			t.Fatal(err)
		}
		placed := 0
		for _, query := range c.mix {
			rw, err := plan.Rewrite(d.Query(query), d.DB.Schema, v.Groups[0].Config, plan.Options{})
			if err != nil {
				t.Fatalf("%s/%s: rewrite: %v", c.variant, query, err)
			}
			res, err := engine.ExecuteOpts(rw, m.PDBs[0], engine.ExecOptions{Verify: true, Trace: true})
			if err != nil {
				t.Fatalf("%s/%s: execute: %v", c.variant, query, err)
			}
			res.Trace.Walk(func(op *trace.OpTrace) {
				if op.Kind != trace.KindRuntimeFilter {
					return
				}
				placed++
				if !c.wantFilters {
					t.Errorf("%s/%s: %s placed where PREF co-locates the joins", c.variant, query, op.Label)
				} else if op.Totals.FilteredRows == 0 {
					t.Errorf("%s/%s: %s dropped no row", c.variant, query, op.Label)
				}
			})
			rw1, err := plan.Rewrite(d.Query(query), d.DB.Schema, one.Groups[0].Config, plan.Options{})
			if err != nil {
				t.Fatalf("%s: single-node rewrite: %v", query, err)
			}
			want, err := engine.ExecuteOpts(rw1, single.PDBs[0], engine.ExecOptions{})
			if err != nil {
				t.Fatalf("%s: single-node execute: %v", query, err)
			}
			res.SortRows()
			want.SortRows()
			if !reflect.DeepEqual(res.Rows, want.Rows) {
				t.Errorf("%s/%s: %d rows differ from single-node execution's %d\n%s",
					c.variant, query, len(res.Rows), len(want.Rows), rw.Explain())
			}
		}
		if c.wantFilters && placed == 0 {
			t.Errorf("%s: the join mix placed no runtime filter", c.variant)
		}
	}
}
