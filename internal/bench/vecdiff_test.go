package bench

import (
	"reflect"
	"testing"

	"pref/internal/batch"
	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/tpch"
)

// TestVecRowOracleTPCH is the half of the TPC-H row/batch oracle that needs
// no reference: all 22 queries under every Section 5.1 design variant run
// twice on the product engine, plain and under the runtime verifier, and
// must agree with themselves — same rows (after SortRows), same Stats — with
// every operator's recorded cells passing check.VerifyTrace. Most of these
// plans hand an aggregate's output batches to another operator (partial
// states repartitioned, aggregates joined and filtered), and the trace
// conservation laws are what a hand-off that dropped or repeated a row
// would break. The comparison against the row reference is
// internal/engine's TestVecRowOracleTPCH: only the engine's own tests can
// reach the reference.
func TestVecRowOracleTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle runs 22 queries x 7 variants twice; skipped in -short")
	}
	d := tpch.Generate(0.002, 7)
	vs, err := TPCHVariants(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"AllReplicated", "AllHashed", "CP", "SD", "SD-noRed", "SD-paper", "WD"}
	mats := map[string]*Materialized{}
	for _, name := range order {
		v, ok := vs[name]
		if !ok {
			t.Fatalf("variant %s missing from TPCHVariants", name)
		}
		m, err := Materialize(v, d.DB)
		if err != nil {
			t.Fatalf("materialize %s: %v", name, err)
		}
		mats[name] = m
	}

	run := func(t *testing.T, name, query string, opt engine.ExecOptions) *engine.Result {
		t.Helper()
		v, m := vs[name], mats[name]
		gi := v.RouteFor(query)
		rw, err := plan.Rewrite(d.Query(query), d.DB.Schema, v.Groups[gi].Config,
			plan.Options{Stats: m.Stats[gi]})
		if err != nil {
			t.Fatalf("%s/%s: rewrite: %v", name, query, err)
		}
		res, err := engine.ExecuteOpts(rw, m.PDBs[gi], opt)
		if err != nil {
			t.Fatalf("%s/%s: execute: %v", name, query, err)
		}
		res.SortRows()
		return res
	}

	for _, query := range tpch.QueryNames {
		query := query
		t.Run(query, func(t *testing.T) {
			for _, name := range order {
				plain := run(t, name, query, engine.ExecOptions{})
				verified := run(t, name, query, engine.ExecOptions{Verify: true, Trace: true})
				if n := batch.Outstanding(); n != 0 {
					t.Fatalf("%s/%s: %d pooled columns were never released", name, query, n)
				}
				if !reflect.DeepEqual(plain.Rows, verified.Rows) {
					t.Errorf("%s/%s: two executions diverge: %d vs %d rows",
						name, query, len(plain.Rows), len(verified.Rows))
				}
				if plain.Stats != verified.Stats || verified.Trace.Totals != verified.Stats {
					t.Errorf("%s/%s: stats diverge:\nplain    %+v\nverified %+v\ntrace    %+v",
						name, query, plain.Stats, verified.Stats, verified.Trace.Totals)
				}
			}
		})
	}
}
