package engine_test

import (
	"context"
	"reflect"
	"testing"

	"pref/internal/batch"
	"pref/internal/bench"
	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/tpch"
	"pref/internal/trace"
	"pref/internal/value"
)

// TestVecRowOracleTPCH is the end-to-end differential oracle for the
// product engine: all 22 TPC-H queries under every Section 5.1 design
// variant execute on the product and on the row reference, and the results
// must be byte-equal — same rows (after SortRows order normalisation, since
// aggregate output is map-ordered), same values bit for bit (float
// aggregation accumulates in the same row order on both), and the same
// execution telemetry. It lives in the engine's external test package
// because only the engine's own tests can reach the reference
// (engine.ExecuteRef, export_test.go) and only an external package can
// import internal/bench, which imports the engine.
func TestVecRowOracleTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle runs 22 queries x 7 variants x 2 engines; skipped in -short")
	}
	d := tpch.Generate(0.002, 7)
	vs, err := bench.TPCHVariants(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"AllReplicated", "AllHashed", "CP", "SD", "SD-noRed", "SD-paper", "WD"}
	mats := map[string]*bench.Materialized{}
	stats := map[string][]*plan.Stats{}
	for _, name := range order {
		v, ok := vs[name]
		if !ok {
			t.Fatalf("variant %s missing from TPCHVariants", name)
		}
		m, err := bench.Materialize(v, d.DB)
		if err != nil {
			t.Fatalf("materialize %s: %v", name, err)
		}
		mats[name], stats[name] = m, m.GroupStats()
	}

	type executeFn func(context.Context, *plan.Rewritten, *table.PartitionedDatabase, engine.ExecOptions) (*engine.Result, error)
	run := func(t *testing.T, name, query string, execute executeFn) *engine.Result {
		t.Helper()
		v, m := vs[name], mats[name]
		gi := v.RouteFor(query)
		rw, err := plan.Rewrite(d.Query(query), d.DB.Schema, v.Groups[gi].Config,
			plan.Options{Stats: stats[name][gi]})
		if err != nil {
			t.Fatalf("%s/%s: rewrite: %v", name, query, err)
		}
		res, err := execute(context.Background(), rw, m.PDBs[gi], engine.ExecOptions{Trace: true})
		if err != nil {
			t.Fatalf("%s/%s: execute: %v", name, query, err)
		}
		res.SortRows()
		return res
	}

	sameRows := func(a, b []value.Tuple) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				return false
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return true
	}

	var keyed, ranged int64
	for _, query := range tpch.QueryNames {
		query := query
		t.Run(query, func(t *testing.T) {
			for _, name := range order {
				vec := run(t, name, query, engine.ExecuteCtx)
				row := run(t, name, query, engine.ExecuteRef)
				if n := batch.Outstanding(); n != 0 {
					t.Fatalf("%s/%s: %d pooled columns were never released", name, query, n)
				}
				if !sameRows(vec.Rows, row.Rows) {
					t.Errorf("%s/%s: product result diverges from the row reference: %d vs %d rows",
						name, query, len(vec.Rows), len(row.Rows))
				}
				if vec.Stats != row.Stats {
					t.Errorf("%s/%s: stats diverge:\nvec %+v\nrow %+v", name, query, vec.Stats, row.Stats)
				}
				// Span by span: the reference keeps a local filter's rows by a
				// map of its source keys and counts the rows a keyed or range
				// read fetches by scanning, so equal cells hold the product's
				// exact filters and its index reads to what they must keep and
				// charge.
				vs, rs := spans(vec.Trace), spans(row.Trace)
				if len(vs) != len(rs) {
					t.Fatalf("%s/%s: %d spans vs the reference's %d", name, query, len(vs), len(rs))
				}
				vec.Trace.Walk(func(ot *trace.OpTrace) {
					if ot.Kind == trace.KindFilter && len(ot.Children) == 1 {
						ranged += ot.Children[0].Totals.IndexProbes
					}
				})
				for i := range vs {
					if !reflect.DeepEqual(vs[i], rs[i]) {
						t.Errorf("%s/%s: span %d diverges:\nvec %+v\nrow %+v", name, query, i, vs[i], rs[i])
						break
					}
					for _, nm := range vs[i].Nodes {
						keyed += nm.IndexProbes
					}
				}
			}
		})
	}
	if keyed == ranged {
		t.Error("fixture drift: no plan read a scan through a key index")
	}
	if ranged == 0 {
		t.Error("fixture drift: no plan read a scan through a date index")
	}
}

// spans lists a trace's operator spans root first, without their wall
// times, which differ between any two runs.
func spans(tr *trace.Trace) []trace.OpTrace {
	var out []trace.OpTrace
	tr.Walk(func(ot *trace.OpTrace) {
		c := *ot
		c.Children = nil
		c.Totals.WallNanos = 0
		c.Nodes = append([]trace.NodeMetrics(nil), ot.Nodes...)
		for i := range c.Nodes {
			c.Nodes[i].WallNanos = 0
		}
		out = append(out, c)
	})
	return out
}
