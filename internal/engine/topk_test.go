package engine

import (
	"context"
	"reflect"
	"testing"

	"pref/internal/partition"
	"pref/internal/plan"
)

func TestTopKBasic(t *testing.T) {
	mk := func() plan.Node {
		return plan.TopK(plan.Scan("orders", "o"), 5,
			plan.OrderSpec{Col: "o.total", Desc: true})
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	rows := res["reference-1node"].Rows
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}

	// Order semantics (the harness canonicalizes row order for set
	// comparison, so check ordering on a direct execution).
	db := testDB(t)
	cfg := testConfigs(4)["pref-chain"]
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := plan.Rewrite(mk(), db.Schema, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ExecuteCtx(context.Background(), rw, pdb, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	totalIdx := direct.Schema.MustIndex("o.total")
	// totals are (10+i)·100 cents; top-5 are orders 49..45, descending.
	want := []int64{5900, 5800, 5700, 5600, 5500}
	for i, r := range direct.Rows {
		if r[totalIdx] != want[i] {
			t.Fatalf("row %d total = %d, want %d (rows %v)", i, r[totalIdx], want[i], direct.Rows)
		}
	}
}

func TestTopKOverAggregate(t *testing.T) {
	// "Top 3 customers by revenue" — the classic ORDER BY over a grouped
	// aggregate, across all partitioning variants.
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("orders", "o"), plan.Scan("customer", "c"),
			plan.Inner, []string{"o.custkey"}, []string{"c.custkey"})
		agg := plan.Aggregate(j, []string{"c.custkey"}, plan.Sum(plan.Col("o.total"), "rev"))
		return plan.TopK(agg, 3, plan.OrderSpec{Col: "rev", Desc: true})
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	if len(res["reference-1node"].Rows) != 3 {
		t.Fatalf("rows = %d", len(res["reference-1node"].Rows))
	}
	// The generated sweeps draw an aggregate or a top-k, never one over the
	// other, so this is where the row reference checks the hand-off.
	db := testDB(t)
	for name, cfg := range testConfigs(4) {
		pdb, err := partition.Apply(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := plan.Rewrite(mk(), db.Schema, cfg, plan.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertEnginesAgree(t, 0, rw, pdb, ExecOptions{Trace: true})
	}
}

func TestTopKNoLimitIsOrderBy(t *testing.T) {
	mk := func() plan.Node {
		return plan.TopK(plan.ProjectCols(plan.Scan("customer", "c"), "c.custkey"), 0,
			plan.OrderSpec{Col: "c.custkey", Desc: false})
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	rows := res["reference-1node"].Rows
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want all 20", len(rows))
	}
	for i := range rows {
		if rows[i][0] != int64(i) {
			t.Fatalf("not ordered: %v", rows)
		}
	}
}

func TestTopKShipsOnlyLimit(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["all-hashed"]
	mk := func() plan.Node {
		return plan.TopK(plan.Scan("lineitem", "l"), 2,
			plan.OrderSpec{Col: "l.qty", Desc: true})
	}
	res := runOn(t, mk, db, cfg, plan.Options{})
	// Each non-coordinator partition ships at most 2 survivor rows.
	if res.Stats.RowsShipped > 2*3 {
		t.Fatalf("shipped %d rows, want ≤ 6", res.Stats.RowsShipped)
	}
}

func TestTopKDeterministicOnTies(t *testing.T) {
	// qty has many ties (i%7); the full-row tie-break must make the
	// result identical across partitioning layouts (covered by
	// assertAllConfigsAgree) and across repeated runs.
	mk := func() plan.Node {
		return plan.TopK(plan.Scan("lineitem", "l"), 10,
			plan.OrderSpec{Col: "l.qty", Desc: true})
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	db := testDB(t)
	again := runOn(t, mk, db, testConfigs(4)["pref-chain"], plan.Options{})
	if !reflect.DeepEqual(res["pref-chain"].Rows, again.Rows) {
		t.Fatal("tied top-k must be deterministic")
	}
}

func TestCountDistinctGroupedAndGlobal(t *testing.T) {
	// Grouped: distinct custkeys per nation (orders joined to customer).
	grouped := func() plan.Node {
		j := plan.Join(plan.Scan("orders", "o"), plan.Scan("customer", "c"),
			plan.Inner, []string{"o.custkey"}, []string{"c.custkey"})
		return plan.Aggregate(j, []string{"c.nationkey"},
			plan.CountDistinct(plan.Col("c.custkey"), "custs"))
	}
	res := assertAllConfigsAgree(t, grouped, plan.Options{})
	// 16 ordering customers over 5 nations (custkey%5): nations 0..4 hold
	// {0,5,10,15},{1,6,11},{2,7,12},{3,8,13},{4,9,14} — 4,3,3,3,3 customers.
	total := int64(0)
	for _, r := range res["reference-1node"].Rows {
		total += r[1]
	}
	if total != 16 {
		t.Fatalf("Σ distinct customers = %d, want 16", total)
	}

	// Global: distinct custkeys over all orders.
	global := func() plan.Node {
		return plan.Aggregate(plan.Scan("orders", "o"), nil,
			plan.CountDistinct(plan.Col("o.custkey"), "custs"))
	}
	res2 := assertAllConfigsAgree(t, global, plan.Options{})
	if res2["reference-1node"].Rows[0][0] != 16 {
		t.Fatalf("global distinct = %d, want 16", res2["reference-1node"].Rows[0][0])
	}
}
