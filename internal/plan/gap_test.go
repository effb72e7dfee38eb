package plan

import (
	"testing"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/table"
	"pref/internal/value"
)

// TestDateGapPricesCorrelatedJoin: GatherStats records the days between a
// lineitem's ship date and its order's date over the foreign key, and the
// estimator uses them. Orders placed before day 500 meet lines shipped after
// it only if placed in the last 10 days before it, as every line ships 1–10
// days after its order: with the gap the join is estimated within 3× of
// what it holds; with independent date bounds, at more than 10×.
func TestDateGapPricesCorrelatedJoin(t *testing.T) {
	s := catalog.NewSchema("g")
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "odate", Kind: value.Date}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}, {Name: "sdate", Kind: value.Date}}, "linekey"))
	s.MustAddFK(catalog.ForeignKey{Name: "fk_l_o", FromTable: "lineitem", FromCols: []string{"orderkey"},
		ToTable: "orders", ToCols: []string{"orderkey"}, ToIsUnique: true})
	db := table.NewDatabase(s)
	const split = 500
	actual := 0
	for o := int64(0); o < 1000; o++ {
		odate := o * 7919 % 1000 // every day once, out of key order
		db.Tables["orders"].MustAppend(value.Tuple{o, odate})
		for j := int64(0); j < 4; j++ {
			l := 4*o + j
			sdate := odate + 1 + l*37%10
			db.Tables["lineitem"].MustAppend(value.Tuple{l, o, sdate})
			if odate < split && sdate > split {
				actual++
			}
		}
	}
	cfg := partition.NewConfig(4)
	cfg.SetHash("orders", "orderkey").SetHash("lineitem", "linekey")
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := GatherStats(pdb)
	want := DateGap{Child: "lineitem", ChildKey: "orderkey", ChildDate: "sdate",
		Parent: "orders", ParentKey: "orderkey", ParentDate: "odate", Min: 1, Max: 10}
	if len(st.Gaps) != 1 || st.Gaps[0] != want {
		t.Fatalf("gaps %+v, want [%+v]", st.Gaps, want)
	}
	q := Join(Filter(Scan("orders", "o"), Lt(Col("o.odate"), Lit(split))),
		Filter(Scan("lineitem", "l"), Gt(Col("l.sdate"), Lit(split))),
		Inner, []string{"o.orderkey"}, []string{"l.orderkey"})
	joinRows := func(st *Stats) float64 {
		r := newRewriter(q, s, cfg, Options{Stats: st})
		phys, _, _, err := r.rewrite(q)
		if err != nil {
			t.Fatal(err)
		}
		j := findNodes(phys, func(n Node) bool { _, ok := n.(*JoinNode); return ok })[0]
		return r.rows(j)
	}
	if got := joinRows(st); got < float64(actual)/3 || got > 3*float64(actual) {
		t.Errorf("with the gap the join is estimated at %.0f rows, holds %d", got, actual)
	}
	independent := *st
	independent.Gaps = nil
	if got := joinRows(&independent); got < 10*float64(actual) {
		t.Errorf("fixture drift: independent bounds estimate %.0f rows for %d, want over 10×", got, actual)
	}
}
