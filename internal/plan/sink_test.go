package plan

import (
	"testing"

	"pref/internal/partition"
)

func isJoin(n Node) bool { _, ok := n.(*JoinNode); return ok }

// nationJoin joins orders ⋈ lineitem to the replicated nation on o.custkey,
// with a residual of two conjuncts: one reads orders and nation, the other
// lineitem and nation. Both read a nation column the join's key does not
// equate with one of orders, so they stay on the join until it moves.
func nationJoin() *JoinNode {
	ol := Join(Scan("orders", "o"), Scan("lineitem", "l"), Inner, []string{"o.orderkey"}, []string{"l.orderkey"})
	j := Join(ol, Scan("nation", "n"), Inner, []string{"o.custkey"}, []string{"n.nationkey"})
	j.Residual = And(Gt(Col("o.total"), Col("n.regionkey")), Gt(Col("l.linekey"), Col("n.regionkey")))
	return j
}

// TestReplicatedJoinSinks: with statistics, a join with a replicated table
// above a co-located join moves down to the input that holds its key. Of
// its residual, the conjunct that reads that input and the replicated table
// goes down with it; the one that reads the other input is AND-ed onto the
// join it moved below. The logical plan is left as it was.
func TestReplicatedJoinSinks(t *testing.T) {
	q := Project(nationJoin(), []string{"o.orderkey", "n.nationkey"},
		[]ValExpr{Col("o.orderkey"), Col("n.nationkey")})
	before := Format(q)
	rw, err := Rewrite(q, testSchema(), prefChainCfg(4), Options{Stats: testStats(1000, 100, 4000)})
	if err != nil {
		t.Fatal(err)
	}
	top, ok := rw.Root.(*ProjectNode).Child.(*JoinNode)
	if !ok || top.LeftCols[0] != "o.orderkey" {
		t.Fatalf("want the orders ⋈ lineitem join on top\n%s", rw.Explain())
	}
	sunk, ok := top.Left.(*JoinNode)
	if !ok || sunk.LeftCols[0] != "o.custkey" {
		t.Fatalf("want the nation join below it, on orders\n%s", rw.Explain())
	}
	if _, tbl, _ := baseScan(sunk.Left); tbl != "orders" {
		t.Errorf("the nation join reads %s, want orders\n%s", sunk.Left, rw.Explain())
	}
	if got, want := sunk.Residual.String(), "o.total>n.regionkey"; got != want {
		t.Errorf("the moved join's residual is %s, want %s", got, want)
	}
	if got, want := top.Residual.String(), "l.linekey>n.regionkey"; got != want {
		t.Errorf("the lifted residual is %s, want %s", got, want)
	}
	if Format(q) != before {
		t.Errorf("the rewrite changed its input:\n%s", Format(q))
	}
}

// TestReplicatedJoinStays: nothing moves without statistics, where the
// small table arrives through a broadcast, into an input holding PREF
// duplicates that its join drops (the estimator counts none of them, but
// the moved join would probe each), or where the join's column order is
// the result's.
func TestReplicatedJoinStays(t *testing.T) {
	hashed := prefChainCfg(4)
	hashed.SetHash("nation", "nationkey")
	st := testStats(1000, 100, 4000)
	for _, c := range []struct {
		name string
		q    Node
		cfg  *partition.Config
		opt  Options
	}{
		{"unpriced", Project(nationJoin(), []string{"n.nationkey"}, []ValExpr{Col("n.nationkey")}), prefChainCfg(4), Options{}},
		{"broadcast", Project(nationJoin(), []string{"n.nationkey"}, []ValExpr{Col("n.nationkey")}), hashed, Options{Stats: st}},
		{"duplicates", Project(nationJoin(), []string{"n.nationkey"}, []ValExpr{Col("n.nationkey")}), scatteredCfg(4), Options{Stats: st}},
		{"result order", nationJoin(), misalignedCfg(), Options{Stats: st}},
	} {
		rw, err := Rewrite(c.q, testSchema(), c.cfg, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		top := findNodes(rw.Root, isJoin)[0].(*JoinNode)
		if top.LeftCols[0] != "o.custkey" {
			t.Errorf("%s: the nation join moved\n%s", c.name, rw.Explain())
		}
	}
	// Under a projection the same join moves, beside the repartitioned
	// lineitem: no exchange lies between it and orders.
	q := Project(nationJoin(), []string{"n.nationkey"}, []ValExpr{Col("n.nationkey")})
	rw, err := Rewrite(q, testSchema(), misalignedCfg(), Options{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if top := findNodes(rw.Root, isJoin)[0].(*JoinNode); top.LeftCols[0] != "o.orderkey" {
		t.Errorf("under a projection the nation join stays\n%s", rw.Explain())
	}
}
