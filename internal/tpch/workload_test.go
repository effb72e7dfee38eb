package tpch

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"pref/internal/design"
	"pref/internal/graph"
	"pref/internal/plan"
)

// graphLine renders a query's join graph on one line: its tables when it
// has no join, then its sorted edges as table(cols)=table(cols) with the
// endpoints in canonical order.
func graphLine(q design.Query) string {
	parts := append([]string{q.Name + ":"}, q.Tables...)
	var edges []string
	for _, j := range q.Joins {
		e := graph.Edge{A: j.TableA, B: j.TableB, ACols: j.ColsA, BCols: j.ColsB}.Canonical()
		edges = append(edges, fmt.Sprintf("%s(%s)=%s(%s)",
			e.A, strings.Join(e.ACols, ","), e.B, strings.Join(e.BCols, ",")))
	}
	sort.Strings(edges)
	return strings.Join(append(parts, edges...), " ")
}

// TestWorkloadGraphsPinned pins the join graph each plan yields, so a plan
// change that moves WD's input shows here.
func TestWorkloadGraphsPinned(t *testing.T) {
	want := []string{
		"Q1: lineitem",
		"Q2: nation(nationkey)=supplier(nationkey) nation(regionkey)=region(regionkey) part(partkey)=partsupp(partkey) partsupp(suppkey)=supplier(suppkey)",
		"Q3: customer(custkey)=orders(custkey) lineitem(orderkey)=orders(orderkey)",
		"Q4: lineitem(orderkey)=orders(orderkey)",
		"Q5: customer(custkey)=orders(custkey) customer(nationkey)=supplier(nationkey) lineitem(orderkey)=orders(orderkey) lineitem(suppkey)=supplier(suppkey) nation(nationkey)=supplier(nationkey) nation(regionkey)=region(regionkey)",
		"Q6: lineitem",
		"Q7: customer(custkey)=orders(custkey) customer(nationkey)=nation(nationkey) lineitem(orderkey)=orders(orderkey) lineitem(suppkey)=supplier(suppkey) nation(nationkey)=supplier(nationkey)",
		"Q8: customer(custkey)=orders(custkey) customer(nationkey)=nation(nationkey) lineitem(orderkey)=orders(orderkey) lineitem(partkey)=part(partkey) lineitem(suppkey)=supplier(suppkey) nation(nationkey)=supplier(nationkey) nation(regionkey)=region(regionkey)",
		"Q9: lineitem(orderkey)=orders(orderkey) lineitem(partkey)=part(partkey) lineitem(partkey,suppkey)=partsupp(partkey,suppkey) lineitem(suppkey)=supplier(suppkey) nation(nationkey)=supplier(nationkey)",
		"Q10: customer(custkey)=orders(custkey) customer(nationkey)=nation(nationkey) lineitem(orderkey)=orders(orderkey)",
		"Q11: nation(nationkey)=supplier(nationkey) partsupp(suppkey)=supplier(suppkey)",
		"Q12: lineitem(orderkey)=orders(orderkey)",
		"Q13: customer(custkey)=orders(custkey)",
		"Q14: lineitem(partkey)=part(partkey)",
		"Q15: lineitem(suppkey)=supplier(suppkey)",
		"Q16: part(partkey)=partsupp(partkey) partsupp(suppkey)=supplier(suppkey)",
		"Q17: lineitem(partkey)=part(partkey)",
		"Q18: customer(custkey)=orders(custkey) lineitem(orderkey)=orders(orderkey)",
		"Q19: lineitem(partkey)=part(partkey)",
		"Q20: nation(nationkey)=supplier(nationkey) partsupp(suppkey)=supplier(suppkey)",
		"Q21: lineitem(orderkey)=orders(orderkey) lineitem(suppkey)=supplier(suppkey) nation(nationkey)=supplier(nationkey)",
		"Q22: customer(custkey)=orders(custkey)",
	}
	w := Workload()
	if len(w) != len(want) {
		t.Fatalf("workload has %d queries, want %d", len(w), len(want))
	}
	for i, q := range w {
		if got := graphLine(q); got != want[i] {
			t.Errorf("join graph\n got  %s\n want %s", got, want[i])
		}
	}
}

// TestJoinGraphRules runs the derivation on hand-built plans: two aliases
// of one table, a residual col = col, a repeated edge in the other
// orientation, a self-join, a two-column key, a residual that extends a
// key in the other orientation, and a plan without joins.
func TestJoinGraphRules(t *testing.T) {
	j := func(l, r plan.Node, typ plan.JoinType, lc, rc []string, res plan.BoolExpr) plan.Node {
		return &plan.JoinNode{Left: l, Right: r, Type: typ, LeftCols: lc, RightCols: rc, Residual: res}
	}
	one := func(c string) []string { return []string{c} }
	co := j(plan.Scan("customer", "c"), plan.Scan("orders", "o"), plan.Inner, one("c.custkey"), one("o.custkey"), nil)
	col := j(co, plan.Scan("lineitem", "l"), plan.Inner, one("o.orderkey"), one("l.orderkey"), nil)
	colps := j(col, plan.Scan("partsupp", "ps"), plan.Inner,
		[]string{"l.partkey", "l.suppkey"}, []string{"ps.partkey", "ps.suppkey"}, nil)
	s := j(colps, plan.Scan("supplier", "s"), plan.Inner, one("l.suppkey"), one("s.suppkey"),
		plan.And(plan.Eq(plan.Col("c.nationkey"), plan.Col("s.nationkey")), plan.Gt(plan.Col("s.acctbal"), plan.Lit(0))))
	n1 := j(s, plan.Scan("nation", "n1"), plan.Inner, one("s.nationkey"), one("n1.nationkey"), nil)
	n2 := j(n1, plan.Scan("nation", "n2"), plan.Inner, one("c.nationkey"), one("n2.nationkey"), nil)
	again := j(n2, plan.Scan("orders", "o2"), plan.Semi, one("l.orderkey"), one("o2.orderkey"), nil)
	self := j(again, plan.Scan("lineitem", "l2"), plan.Anti, one("l.orderkey"), one("l2.orderkey"),
		plan.Cmp(plan.Col("l2.suppkey"), plan.NE, plan.Col("l.suppkey")))
	mixed := j(plan.Scan("lineitem", "l"), plan.Scan("partsupp", "ps"), plan.Inner, one("l.partkey"), one("ps.partkey"),
		plan.Eq(plan.Col("ps.suppkey"), plan.Col("l.suppkey")))
	scan := plan.Aggregate(plan.Filter(plan.Scan("lineitem", "l"), plan.Gt(plan.Col("l.quantity"), plan.Lit(5))),
		nil, plan.Count("n"))
	for _, c := range []struct {
		root plan.Node
		want string
	}{
		{self, "[{customer [custkey] orders [custkey]} {orders [orderkey] lineitem [orderkey]} " +
			"{lineitem [partkey suppkey] partsupp [partkey suppkey]} {lineitem [suppkey] supplier [suppkey]} " +
			"{customer [nationkey] supplier [nationkey]} {supplier [nationkey] nation [nationkey]} " +
			"{customer [nationkey] nation [nationkey]}] []"},
		{mixed, "[{lineitem [partkey suppkey] partsupp [partkey suppkey]}] []"},
		{scan, "[] [lineitem]"},
	} {
		q := joinGraph("Q", c.root)
		if got := fmt.Sprint(q.Joins, " ", q.Tables); got != c.want {
			t.Errorf("joinGraph\n got  %s\n want %s", got, c.want)
		}
	}
}
