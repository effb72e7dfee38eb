package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/table"
	"pref/internal/value"
)

// TestDateGapPricesCorrelatedJoin: the schema declares the days between a
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
	joinRows := func(s *catalog.Schema) float64 {
		r := newRewriter(q, s, cfg, Options{Stats: st})
		phys, _, _, err := r.rewrite(q)
		if err != nil {
			t.Fatal(err)
		}
		j := findNodes(phys, func(n Node) bool { _, ok := n.(*JoinNode); return ok })[0]
		return r.rows(j)
	}
	if got := joinRows(s); got < float64(actual)/3 || got > 3*float64(actual) {
		t.Errorf("with the gap the join is estimated at %.0f rows, holds %d", got, actual)
	}
	if got := joinRows(withoutGaps(s)); got < 10*float64(actual) {
		t.Errorf("fixture drift: independent bounds estimate %.0f rows for %d, want over 10×", got, actual)
	}
}

// gapSplit is the day the gap fixture's date filters split at.
const gapSplit = 500

// gapFixture is a 1 000-order database whose orders, one a day in scrambled
// key order, each ship 4 lines 1–10 days after they are placed, as its
// schema declares, hashed over 4 nodes, with its statistics.
func gapFixture(t *testing.T) (*catalog.Schema, *partition.Config, *Stats, *table.Database) {
	t.Helper()
	s := catalog.NewSchema("g")
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "odate", Kind: value.Date}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}, {Name: "sdate", Kind: value.Date}}, "linekey"))
	s.MustAddFK(catalog.ForeignKey{Name: "fk_l_o", FromTable: "lineitem", FromCols: []string{"orderkey"},
		ToTable: "orders", ToCols: []string{"orderkey"}, ToIsUnique: true,
		Gaps: []catalog.DateGap{{ChildDate: "sdate", ParentDate: "odate", Min: 1, Max: 10}}})
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
	return s, cfg, GatherStats(pdb), db
}

// withoutGaps returns a copy of s that declares no date gap.
func withoutGaps(s *catalog.Schema) *catalog.Schema {
	out := s.Without()
	for i := range out.FKs {
		out.FKs[i].Gaps = nil
	}
	return out
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
	filter := func(s *catalog.Schema) (*Rewriter, Node, *RuntimeFilterNode) {
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

	r, o, rf := filter(s)
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

	r, o, rf = filter(withoutGaps(s))
	l := rf.From.Right
	if got, want := r.rows(rf), r.rows(o)*r.keyNDV(l, []string{"l.orderkey"})/r.keyNDV(o, []string{"o.orderkey"}); !near(got, want) || got < 1.5*actual {
		t.Errorf("fixture drift: without the gap the filter keeps an estimated %.0f orders, want the distinct-count %.0f, over 1.5× the %.0f named",
			got, want, actual)
	}
}

// windowsOf rewrites q over the gap fixture without statistics and returns
// every window the plan carries, by the alias of the scan below its filter.
func windowsOf(t *testing.T, q Node) map[string][]Window {
	t.Helper()
	s, cfg, _, _ := gapFixture(t)
	rw, err := Rewrite(q, s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]Window{}
	for _, n := range findNodes(rw.Root, func(n Node) bool { f, ok := n.(*FilterNode); return ok && len(f.Windows) > 0 }) {
		f := n.(*FilterNode)
		alias := f.Windows[0].Col[:strings.Index(f.Windows[0].Col, ".")]
		out[alias] = append(out[alias], f.Windows...)
		conj := Conjuncts(f.Pred)
		var tail []BoolExpr
		for _, w := range f.Windows {
			tail = append(tail, w.Conjuncts()...)
		}
		if fmt.Sprint(conj[len(conj)-len(tail):]) != fmt.Sprint(tail) {
			t.Errorf("%s does not close with its windows' conjuncts %v", f, tail)
		}
	}
	return out
}

// TestWindowsFollowTheDeclaredGap: the lines shipped after day 500 name
// only orders placed from day 491 on, as every line ships 1–10 days after
// its order; the orders placed before day 500 have lines shipped by day
// 509. The orders filter takes the window [491, open], which the plan shows
// as a conjunct closing its predicate. The lineitem input reaches the join
// through an exchange, so an exact runtime filter from the orders already
// narrows it and it takes none. Where a join input is grouped by its key on
// the way, the window passes the aggregate.
func TestWindowsFollowTheDeclaredGap(t *testing.T) {
	orders := func() Node { return Filter(Scan("orders", "o"), Lt(Col("o.odate"), Lit(gapSplit))) }
	lines := func() Node { return Filter(Scan("lineitem", "l"), Gt(Col("l.sdate"), Lit(gapSplit))) }
	got := windowsOf(t, Join(orders(), lines(), Inner, []string{"o.orderkey"}, []string{"l.orderkey"}))
	if w := got["o"]; len(w) != 1 || w[0].Col != "o.odate" || w[0].Lo != gapSplit-9 || w[0].Hi != math.MaxInt64 {
		t.Errorf("orders windows %+v, want one [%d, open] on o.odate", w, gapSplit-9)
	}
	if w := got["l"]; len(w) != 0 {
		t.Errorf("lineitem takes windows %+v beside the exact runtime filter from its join", w)
	}

	summed := Aggregate(lines(), []string{"l.orderkey"}, Count("n"))
	got = windowsOf(t, Join(orders(), summed, Inner, []string{"o.orderkey"}, []string{"l.orderkey"}))
	if w := got["o"]; len(w) != 1 || w[0].Lo != gapSplit-9 {
		t.Errorf("through an aggregate grouped by the key, orders windows %+v, want [%d, open]", w, gapSplit-9)
	}
}

// TestWindowsStayOff: no window where one could drop a row the join needs,
// or where its bounds would leave int64: a LEFT OUTER join's inputs, an
// input that reaches its join through an aggregate not grouped by the key,
// and a literal so near the end of int64 that the gap shifts it past, which
// opens that side; the other side is open, so the window adds no conjunct.
func TestWindowsStayOff(t *testing.T) {
	orders := Filter(Scan("orders", "o"), Lt(Col("o.odate"), Lit(gapSplit)))
	lines := Filter(Scan("lineitem", "l"), Gt(Col("l.sdate"), Lit(gapSplit)))
	byDate := Aggregate(lines, []string{"l.sdate"}, Max(Col("l.orderkey"), "l.orderkey"))
	for name, q := range map[string]Node{
		"left outer":            Join(orders, lines, LeftOuter, []string{"o.orderkey"}, []string{"l.orderkey"}),
		"aggregate off the key": Join(orders, byDate, Inner, []string{"o.orderkey"}, []string{"l.orderkey"}),
		"lines shipped from near the first day": Join(orders,
			Filter(Scan("lineitem", "l"), Ge(Col("l.sdate"), Lit(math.MinInt64+5))), Inner, []string{"o.orderkey"}, []string{"l.orderkey"}),
	} {
		if got := windowsOf(t, q); len(got) != 0 {
			t.Errorf("%s: windows %+v", name, got)
		}
	}
}

// TestWindowShiftSaturates: a window side opens where its source side is
// open or the shift would reach either end of int64, and an open side adds
// no conjunct.
func TestWindowShiftSaturates(t *testing.T) {
	child, parent := gapEdge{lo: 1, hi: 121}, gapEdge{lo: -121, hi: -1}
	for _, c := range []struct {
		e              gapEdge
		lo, hi         int64
		wantLo, wantHi int64
	}{
		{child, math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64},
		{child, 100, 200, 101, 321},
		{parent, 100, 200, -21, 199},
		{child, math.MaxInt64 - 1, math.MaxInt64 - 1, math.MinInt64, math.MaxInt64},
		{child, math.MaxInt64 - 200, math.MaxInt64 - 122, math.MaxInt64 - 199, math.MaxInt64 - 1},
		{parent, math.MinInt64 + 1, math.MinInt64 + 2, math.MinInt64, math.MinInt64 + 1},
		{parent, math.MinInt64 + 122, math.MinInt64 + 150, math.MinInt64 + 1, math.MinInt64 + 149},
	} {
		lo, hi := c.e.shift(c.lo, c.hi)
		if lo != c.wantLo || hi != c.wantHi {
			t.Errorf("%+v shifts [%d, %d] to [%d, %d], want [%d, %d]", c.e, c.lo, c.hi, lo, hi, c.wantLo, c.wantHi)
		}
	}
	if c := (Window{Col: "o.odate", Lo: math.MinInt64, Hi: math.MaxInt64}).Conjuncts(); len(c) != 0 {
		t.Errorf("an open window adds %v", c)
	}
}
