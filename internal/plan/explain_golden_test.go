package plan_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"pref/internal/engine"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/trace"
	"pref/internal/value"
)

// The EXPLAIN ANALYZE golden tests pin the executed-trace rendering for
// the same schema-driven fixture the plan goldens use: operator lines in
// Rewritten.Explain shape plus the per-operator actuals recorded by
// internal/trace. Wall-clock fields are suppressed (HideWall), so the
// rendering is a pure function of plan and data. Regenerate with:
//
//	go test ./internal/plan -run TestGoldenExplainAnalyze -update

// goldenDB fills the golden schema deterministically: 24 lineitems over 8
// orders, 6 customers (2 orderless), 3 nations. Small enough to read in a
// golden diff, rich enough that every operator moves rows.
func goldenDB(t *testing.T) *table.Database {
	t.Helper()
	db := table.NewDatabase(goldenSchema(t))
	for i := int64(0); i < 3; i++ {
		db.Tables["nation"].MustAppend(value.Tuple{i, db.Schema.Table("nation").Dict("n_name").Code("N" + string(rune('A'+i)))})
	}
	cdict := db.Schema.Table("customer").Dict("c_name")
	for i := int64(0); i < 6; i++ {
		db.Tables["customer"].MustAppend(value.Tuple{i, cdict.Code("cust-" + string(rune('a'+i))), i % 3})
	}
	for i := int64(0); i < 8; i++ {
		db.Tables["orders"].MustAppend(value.Tuple{i, i % 4, value.FromMoney(float64(100 + i))})
	}
	for i := int64(0); i < 24; i++ {
		db.Tables["lineitem"].MustAppend(value.Tuple{i % 8, i, i % 5})
	}
	return db
}

func TestGoldenExplainAnalyze(t *testing.T) {
	sch := goldenSchema(t)
	cfg := goldenSD(t, sch)
	db := goldenDB(t)
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}

	cases := []struct {
		name string
		root plan.Node
	}{
		{
			// The PREF chain keeps both joins local: every join span must
			// render shipped=0, with dedup hits on the duplicate-carrying
			// customer side.
			name: "analyze_join_pref",
			root: plan.Join(
				plan.Join(
					plan.Scan("customer", "c"), plan.Scan("orders", "o"),
					plan.Inner, []string{"c.c_custkey"}, []string{"o.o_custkey"}),
				plan.Scan("lineitem", "l"),
				plan.Inner, []string{"o.o_orderkey"}, []string{"l.l_orderkey"}),
		},
		{
			// Misaligned grouping: the repartition span ships partial states
			// (narrower and fewer than the scanned rows); the customer
			// duplicates are dropped locally below the PartialAgg.
			name: "analyze_agg_repartition",
			root: plan.Aggregate(
				plan.Scan("customer", "c"), []string{"c.c_nation"},
				plan.Count("customers")),
		},
		{
			// Global aggregate over a gather: the coordinator-side merge
			// consumes exactly the gathered partials.
			name: "analyze_global_agg",
			root: plan.Aggregate(
				plan.Join(
					plan.Scan("orders", "o"), plan.Scan("lineitem", "l"),
					plan.Inner, []string{"o.o_orderkey"}, []string{"l.l_orderkey"}),
				nil, plan.Count("cnt")),
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rw, err := plan.Rewrite(tc.root, sch, cfg, plan.Options{})
			if err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			res, err := engine.ExecuteCtx(context.Background(), rw, pdb, engine.ExecOptions{Trace: true, Verify: true})
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			got := res.Trace.Render(trace.RenderOptions{HideWall: true})
			path := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN ANALYZE rendering changed; run with -update if intentional.\n--- want\n%s--- got\n%s", want, got)
			}
		})
	}
}
