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
	s, cfg, st, db := gapFixture(t)
	actual := 0
	for _, l := range db.Tables["lineitem"].Rows {
		if o := db.Tables["orders"].Rows[l[1]]; o[1] < gapSplit && l[2] > gapSplit {
			actual++
		}
	}
	q := Join(Filter(Scan("orders", "o"), Lt(Col("o.odate"), Lit(gapSplit))),
		Filter(Scan("lineitem", "l"), Gt(Col("l.sdate"), Lit(gapSplit))),
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

// gapSplit is the day the gap fixture's date filters split at.
const gapSplit = 500

// gapFixture is a 1 000-order database whose orders, one a day in scrambled
// key order, each ship 4 lines 1–10 days after they are placed, hashed over
// 4 nodes, with its statistics: GatherStats records the gap.
func gapFixture(t *testing.T) (*catalog.Schema, *partition.Config, *Stats, *table.Database) {
	t.Helper()
	s := catalog.NewSchema("g")
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "odate", Kind: value.Date}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}, {Name: "sdate", Kind: value.Date}}, "linekey"))
	s.MustAddFK(catalog.ForeignKey{Name: "fk_l_o", FromTable: "lineitem", FromCols: []string{"orderkey"},
		ToTable: "orders", ToCols: []string{"orderkey"}, ToIsUnique: true})
	db := table.NewDatabase(s)
	for o := int64(0); o < 1000; o++ {
		odate := o * 7919 % 1000 // every day once, out of key order
		db.Tables["orders"].MustAppend(value.Tuple{o, odate})
		for j := int64(0); j < 4; j++ {
			l := 4*o + j
			db.Tables["lineitem"].MustAppend(value.Tuple{l, o, odate + 1 + l*37%10})
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
	return s, cfg, st, db
}

// TestDateGapBoundsFilterContainment: a runtime filter from the lines
// shipped after day 500 into orders keeps only the orders placed in the
// window the gap allows, about half of them, where the distinct counts
// alone see the lines naming most orders. The filter's row estimate is
// within 1.5× of the orders that have such a line, and it keeps the share
// of orders' dates that its narrowed odate column does: one window.
// Without the gap the estimate is the distinct-count ratio, well above.
func TestDateGapBoundsFilterContainment(t *testing.T) {
	s, cfg, st, db := gapFixture(t)
	named := map[int64]bool{}
	for _, l := range db.Tables["lineitem"].Rows {
		if l[2] > gapSplit {
			named[l[1]] = true
		}
	}
	actual := float64(len(named))
	q := Join(Scan("orders", "o"), Filter(Scan("lineitem", "l"), Gt(Col("l.sdate"), Lit(gapSplit))),
		Inner, []string{"o.orderkey"}, []string{"l.orderkey"})
	// filter returns the estimator, the orders scan and a local filter on it
	// from the lines.
	filter := func(st *Stats) (*Rewriter, Node, *RuntimeFilterNode) {
		r := newRewriter(q, s, cfg, Options{Stats: st})
		phys, _, _, err := r.rewrite(q)
		if err != nil {
			t.Fatal(err)
		}
		o := findNodes(phys, func(n Node) bool { x, ok := n.(*ScanNode); return ok && x.Table == "orders" })[0]
		l := findNodes(phys, func(n Node) bool { _, ok := n.(*FilterNode); return ok })[0]
		from := &JoinNode{Left: o, Right: l, Type: Inner, LeftCols: []string{"o.orderkey"}, RightCols: []string{"l.orderkey"}, Source: RightSide}
		rf := &RuntimeFilterNode{Child: o, Col: "o.orderkey", From: from, Local: true}
		r.note(rf, r.out.Schemas[o], r.out.Props[o])
		return r, o, rf
	}

	r, o, rf := filter(st)
	got := r.rows(rf)
	t.Logf("%.0f orders have a line shipped after day %d; the filter is estimated to keep %.1f", actual, gapSplit, got)
	if got < actual/1.5 || got > 1.5*actual {
		t.Errorf("with the gap the filter keeps an estimated %.0f orders; %.0f have such a line", got, actual)
	}
	full, _ := r.col(o, "o.odate")
	date, _ := r.col(rf, "o.odate")
	if window := inWindow(full.lo, full.hi, date.lo, date.hi); !near(got/r.rows(o), window) {
		t.Errorf("the filter keeps %.3f of orders, its odate column [%v, %v] %.3f of their dates",
			got/r.rows(o), date.lo, date.hi, window)
	}

	independent := *st
	independent.Gaps = nil
	r, o, rf = filter(&independent)
	l := rf.From.Right
	if got, want := r.rows(rf), r.rows(o)*r.keyNDV(l, []string{"l.orderkey"})/r.keyNDV(o, []string{"o.orderkey"}); !near(got, want) || got < 1.5*actual {
		t.Errorf("fixture drift: without the gap the filter keeps an estimated %.0f orders, want the distinct-count %.0f, over 1.5× the %.0f named",
			got, want, actual)
	}
}
