package engine

import (
	"reflect"
	"testing"

	"pref/internal/bulkload"
	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/value"
)

// Queries are pinned to the epoch published at admission: committed write
// batches advance Result.Epoch and become visible, while unpublished —
// even torn — head state never leaks into a result.
func TestQueryReadsPinnedEpochSnapshot(t *testing.T) {
	s := catalog.NewSchema("w")
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "custkey", Kind: value.Int}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("customer",
		[]catalog.Column{{Name: "custkey", Kind: value.Int}, {Name: "nation", Kind: value.Int}}, "custkey"))
	db := table.NewDatabase(s)
	for o := int64(0); o < 12; o++ {
		db.Tables["orders"].MustAppend(value.Tuple{o, o % 4})
	}
	for c := int64(0); c < 4; c++ {
		db.Tables["customer"].MustAppend(value.Tuple{c, c % 2})
	}
	cfg := partition.NewConfig(4)
	cfg.SetHash("orders", "orderkey")
	cfg.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})

	mk := func() plan.Node {
		return plan.Aggregate(plan.Scan("customer", "c"), nil,
			plan.Count("cnt"), plan.Sum(plan.Col("c.custkey"), "s"))
	}
	pq := prepareQuery(t, mk, db, cfg)

	res0, err := pq.run(t, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res0.Epoch != 0 {
		t.Fatalf("pre-write epoch = %d, want 0", res0.Epoch)
	}

	// A committed batch becomes visible and advances the pinned epoch.
	l := bulkload.NewLoader(pq.pdb, cfg)
	c1, err := l.Apply(bulkload.Insert("customer", value.Tuple{50, 9}))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := pq.run(t, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Epoch != c1.Epoch {
		t.Fatalf("post-commit epoch = %d, want %d", res1.Epoch, c1.Epoch)
	}
	if res1.Rows[0][0] != res0.Rows[0][0]+1 {
		t.Fatalf("committed insert not visible: %v vs %v", res1.Rows, res0.Rows)
	}

	// Unpublished head state — here a torn mid-write append — must stay
	// invisible: the query reads its pinned snapshot, not the head.
	pt := pq.pdb.Tables["customer"]
	head := pt.BeginWrite(0)
	head.AppendTorn(value.Tuple{77, 7})
	res2, err := pq.run(t, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Epoch != res1.Epoch || !reflect.DeepEqual(res2.Rows, res1.Rows) {
		t.Fatalf("torn head leaked into a pinned query: %v vs %v", res2.Rows, res1.Rows)
	}
	if discarded := pt.ResetToPublished(); discarded == 0 {
		t.Fatal("rollback discarded nothing despite a diverged head partition")
	}
	res3, err := pq.run(t, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res3.Rows, res1.Rows) {
		t.Fatal("rollback changed published query results")
	}
}
