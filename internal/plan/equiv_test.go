package plan

import "testing"

// lineOrderCust joins lineitem, orders and customer on their keys.
func lineOrderCust() *JoinNode {
	lo := Join(Scan("lineitem", "l"), Scan("orders", "o"), Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
	return Join(lo, Scan("customer", "c"), Inner, []string{"o.custkey"}, []string{"c.custkey"})
}

func residualOf(n Node) string {
	if j, ok := n.(*JoinNode); ok && j.Residual != nil {
		return j.Residual.String()
	}
	return ""
}

// TestResidualsBindAtTheLowestJoin: a conjunct of a join's residual moves
// down through each inner join whose keys equate a column it reads with one
// of the input it enters, and stops where it needs both inputs; a conjunct
// that needs the join's own inputs stays. The logical plan is left as it
// was.
func TestResidualsBindAtTheLowestJoin(t *testing.T) {
	j := Join(lineOrderCust(), Scan("nation", "n"), Inner, []string{"c.custkey"}, []string{"n.nationkey"})
	j.Residual = And(Gt(Col("l.linekey"), Col("n.nationkey")), Lt(Col("n.regionkey"), Col("o.orderkey")))
	before := Format(j)
	top, ok := pushResiduals(j, testSchema()).(*JoinNode)
	if !ok || top == j {
		t.Fatalf("nothing moved:\n%s", Format(top))
	}
	oc := top.Left.(*JoinNode)
	lo := oc.Left.(*JoinNode)
	for _, c := range []struct {
		join      Node
		name, res string
	}{
		{top, "the nation join", "n.regionkey<o.orderkey"},
		{oc, "the customer join", ""},
		{lo, "the orders join", "l.linekey>o.custkey"},
	} {
		if got := residualOf(c.join); got != c.res {
			t.Errorf("%s's residual is %q, want %q", c.name, got, c.res)
		}
	}
	if Format(j) != before {
		t.Errorf("the pass changed its input:\n%s", Format(j))
	}

	// Through a projection that keeps the columns and a semi join's left
	// input.
	semi := Join(lineOrderCust(), Scan("lineitem", "l2"), Semi, []string{"o.orderkey"}, []string{"l2.orderkey"})
	kept := ProjectCols(semi, "l.linekey", "c.custkey")
	j = Join(kept, Scan("nation", "n"), Inner, []string{"c.custkey"}, []string{"n.nationkey"})
	j.Residual = Gt(Col("l.linekey"), Col("n.nationkey"))
	top = pushResiduals(j, testSchema()).(*JoinNode)
	lo = top.Left.(*ProjectNode).Child.(*JoinNode).Left.(*JoinNode).Left.(*JoinNode)
	if top.Residual != nil || residualOf(lo) != "l.linekey>o.custkey" {
		t.Errorf("want the conjunct on the orders join, got\n%s", Format(top))
	}
}

// TestResidualsStay: a conjunct never enters either input of a left outer
// join, nor passes a projection that renames a column it reads, nor
// substitutes a string column.
func TestResidualsStay(t *testing.T) {
	outer := Join(Join(Scan("lineitem", "l"), Scan("orders", "o"), LeftOuter, []string{"l.orderkey"}, []string{"o.orderkey"}),
		Scan("nation", "n"), Inner, []string{"o.custkey"}, []string{"n.nationkey"})
	outer.Residual = Gt(Col("l.linekey"), Col("n.nationkey"))

	oc := Join(Scan("orders", "o"), Scan("customer", "c"), Inner, []string{"o.custkey"}, []string{"c.custkey"})
	renamed := Project(oc, []string{"ck", "o.total"}, []ValExpr{Col("o.custkey"), Col("o.total")})
	rename := Join(renamed, Scan("nation", "n"), Inner, []string{"ck"}, []string{"n.nationkey"})
	rename.Residual = Gt(Col("o.total"), Col("n.nationkey"))

	oc = Join(Scan("orders", "o"), Scan("customer", "c"), Inner, []string{"o.custkey"}, []string{"c.custkey"})
	str := Join(oc, Scan("customer", "c2"), Inner, []string{"c.name"}, []string{"c2.name"})
	str.Residual = Gt(Col("o.orderkey"), Col("c2.name"))

	for name, j := range map[string]*JoinNode{"left outer": outer, "renamed": rename, "string": str} {
		if got := pushResiduals(j, testSchema()); got != Node(j) {
			t.Errorf("%s: the residual moved\n%s", name, Format(got))
		}
	}
}

// forkQuery filters orders ⋈ customer by the nations of one region on
// o.custkey, which the join of orders and customer equates with c.custkey.
func forkQuery() Node {
	oc := Join(Scan("orders", "o"), Scan("customer", "c"), Inner, []string{"o.custkey"}, []string{"c.custkey"})
	return Join(Filter(Scan("nation", "n"), Eq(Col("n.regionkey"), Lit(1))), oc,
		Inner, []string{"n.nationkey"}, []string{"o.custkey"})
}

// TestFilterForksOntoEquatedColumn: with statistics, the nation filter on
// o.custkey forks onto c.custkey, from the same join, as a local filter over
// the customer scan. Without statistics nothing forks.
func TestFilterForksOntoEquatedColumn(t *testing.T) {
	rw, fs := runtimeFilters(t, forkQuery(), prefChainCfg(4), Options{Stats: testStats(1000, 100, 4000)})
	cols := map[string]*RuntimeFilterNode{}
	for _, f := range fs {
		cols[f.Col] = f
	}
	o, c := cols["o.custkey"], cols["c.custkey"]
	if o == nil || c == nil || c.From != o.From || !c.Local || !isScanOf(c.Child, "customer") {
		t.Fatalf("want a filter on o.custkey and its local fork on c.custkey over customer\n%s", rw.Explain())
	}
	if _, fs := runtimeFilters(t, forkQuery(), prefChainCfg(4), Options{}); len(fs) > 1 {
		t.Errorf("without statistics %d filters, want at most the one on o.custkey", len(fs))
	}
}

// TestTimedTakesForksOut: pricing a form places its filters, forks
// included, and takes every one out again.
func TestTimedTakesForksOut(t *testing.T) {
	q := forkQuery()
	r := newRewriter(q, testSchema(), prefChainCfg(4), Options{Stats: testStats(1000, 100, 4000)})
	phys, _, _, err := r.rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	before := Format(phys)
	r.timed(phys)
	if after := Format(phys); after != before {
		t.Fatalf("timed left filters behind:\n%s\nwant\n%s", after, before)
	}
	if placed := r.placeTransfers(phys); len(placed) != 2 {
		t.Errorf("placeTransfers returned %d slots, want the filter and its fork\n%s", len(placed), Format(phys))
	}
}

func isScanOf(n Node, tbl string) bool {
	s, ok := n.(*ScanNode)
	return ok && s.Table == tbl
}
