package bench

import (
	"reflect"
	"testing"

	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/tpch"
	"pref/internal/value"
)

// TestDifferentialTPCH executes all 22 TPC-H queries under every design
// variant of Section 5.1 and checks each against the AllReplicated
// baseline (every join local and loss-free, so its answer is trusted).
// Row order is normalised with Result.SortRows before comparison. This is
// the correctness backstop for the observability layer: variants differ
// wildly in *how* rows move (which the trace records), but never in
// *what* they answer.
func TestDifferentialTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite runs 22 queries x 7 variants; skipped in -short")
	}
	d := tpch.Generate(0.002, 7)
	vs, err := TPCHVariants(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline first, then every other variant in a fixed order.
	order := []string{"AllReplicated", "AllHashed", "CP", "SD", "SD-noRed", "SD-paper", "WD"}
	for _, name := range order {
		if _, ok := vs[name]; !ok {
			t.Fatalf("variant %s missing from TPCHVariants", name)
		}
	}

	run := func(t *testing.T, v *Variant, m *Materialized, query string) []value.Tuple {
		t.Helper()
		gi := v.RouteFor(query)
		rw, err := plan.Rewrite(d.Query(query), d.DB.Schema, v.Groups[gi].Config,
			plan.Options{Stats: m.Stats[gi]})
		if err != nil {
			t.Fatalf("%s/%s: rewrite: %v", v.Name, query, err)
		}
		res, err := engine.Execute(rw, m.PDBs[gi])
		if err != nil {
			t.Fatalf("%s/%s: execute: %v", v.Name, query, err)
		}
		res.SortRows()
		return res.Rows
	}

	mats := map[string]*Materialized{}
	for _, name := range order {
		m, err := Materialize(vs[name], d.DB)
		if err != nil {
			t.Fatalf("materialize %s: %v", name, err)
		}
		mats[name] = m
	}

	for _, query := range tpch.QueryNames {
		query := query
		t.Run(query, func(t *testing.T) {
			ref := run(t, vs["AllReplicated"], mats["AllReplicated"], query)
			if len(ref) == 0 {
				t.Fatalf("%s baseline returned no rows at this scale", query)
			}
			for _, name := range order[1:] {
				got := run(t, vs[name], mats[name], query)
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s diverges from AllReplicated on %s: got %d rows, want %d",
						name, query, len(got), len(ref))
				}
			}
		})
	}
}

// TestGroupedAggShipsPartialStatesTPCH guards the two-phase rewrite of
// grouped aggregation: on SD, Q1 and Q15 repartition nothing but
// per-partition partial states, and Q1 ships at most one state per group
// and remote node plus its result rows. A rewriter change that goes back to
// shipping every input row fails here, at micro scale.
func TestGroupedAggShipsPartialStatesTPCH(t *testing.T) {
	const n, q1Groups = 4, 4
	d := tpch.Generate(0.002, 7)
	v, err := TPCHVariant(d, n, "SD")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Materialize(v, d.DB)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"Q1", "Q15"} {
		gi := v.RouteFor(query)
		rw, err := plan.Rewrite(d.Query(query), d.DB.Schema, v.Groups[gi].Config,
			plan.Options{Stats: m.Stats[gi]})
		if err != nil {
			t.Fatalf("%s: rewrite: %v", query, err)
		}
		exchanges := 0
		var walk func(plan.Node)
		walk = func(node plan.Node) {
			if rep, ok := node.(*plan.RepartitionNode); ok {
				exchanges++
				if _, ok := rep.Child.(*plan.PartialAggNode); !ok {
					t.Errorf("%s: %s ships %T rows, want partial states only:\n%s",
						query, rep, rep.Child, rw.Explain())
				}
			}
			for _, c := range node.Children() {
				walk(c)
			}
		}
		walk(rw.Root)
		if exchanges == 0 {
			t.Fatalf("%s: fixture drift: no repartition left to guard:\n%s", query, rw.Explain())
		}
		if query != "Q1" {
			continue
		}
		res, err := engine.Execute(rw, m.PDBs[gi])
		if err != nil {
			t.Fatalf("%s: execute: %v", query, err)
		}
		if max := int64((n-1)*q1Groups + len(res.Rows)); res.Stats.RowsShipped > max {
			t.Errorf("Q1 shipped %d rows, want at most %d ((n-1)·groups + %d result rows)",
				res.Stats.RowsShipped, max, len(res.Rows))
		}
	}
}
