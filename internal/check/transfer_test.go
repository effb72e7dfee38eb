package check_test

import (
	"strings"
	"testing"

	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/partition"
	"pref/internal/plan"
)

// Mutations of runtime join filters: each starts from a rewrite that places
// a filter and verifies, then moves or re-points the filter to where a
// dropped row could have joined.

// miniHashed hashes every table of miniSchema on its key, so every join on a
// non-key column ships.
func miniHashed(t *testing.T, sch *catalog.Schema) *partition.Config {
	t.Helper()
	cfg := partition.NewConfig(4)
	cfg.SetHash("lineitem", "l_orderkey").SetHash("orders", "o_orderkey").
		SetHash("customer", "c_custkey").SetHash("nation", "n_nationkey")
	if err := cfg.Validate(sch); err != nil {
		t.Fatalf("fixture config invalid: %v", err)
	}
	return cfg
}

// transferPlan rewrites q over miniHashed and returns the plan with its one
// runtime filter and the operator above the filter.
func transferPlan(t *testing.T, q plan.Node) (*plan.Rewritten, *plan.RuntimeFilterNode, plan.Node) {
	t.Helper()
	sch := miniSchema(t)
	rw := mustRewrite(t, q, sch, miniHashed(t, sch))
	isFilter := func(n plan.Node) bool { _, ok := n.(*plan.RuntimeFilterNode); return ok }
	f, _ := findNode(rw.Root, isFilter).(*plan.RuntimeFilterNode)
	if f == nil {
		t.Fatalf("fixture drift: the rewrite placed no runtime filter\n%s", rw.Explain())
	}
	parent := findNode(rw.Root, func(n plan.Node) bool {
		for _, c := range n.Children() {
			if c == plan.Node(f) {
				return true
			}
		}
		return false
	})
	if err := check.Verify(rw); err != nil {
		t.Fatalf("Verify failed before any mutation: %v\n%s", err, rw.Explain())
	}
	return rw, f, parent
}

// moveFilter wraps *slot in a filter on col from join j, recording the
// schema and properties the rewrite would have.
func moveFilter(rw *plan.Rewritten, slot *plan.Node, col string, j *plan.JoinNode) *plan.RuntimeFilterNode {
	f := &plan.RuntimeFilterNode{Child: *slot, Col: col, From: j}
	rw.Schemas[f] = rw.Schemas[*slot]
	rw.Props[f] = rw.Props[*slot].Clone()
	*slot = f
	return f
}

// expectTransfer asserts that Verify reports a transfer violation saying why.
func expectTransfer(t *testing.T, rw *plan.Rewritten, why string) {
	t.Helper()
	expectRule(t, rw, check.RuleTransfer)
	if err := check.Verify(rw); !strings.Contains(err.Error(), why) {
		t.Fatalf("transfer violation does not say %q: %v", why, err)
	}
}

func TestVerifyRejectsTransferIntoAntiLeft(t *testing.T) {
	// Orders over a threshold that have no line with partkey = their key:
	// the selective left input filters the shipped lineitem side.
	q := plan.Join(
		plan.Filter(plan.Scan("orders", "o"), plan.Gt(plan.Col("o.o_orderkey"), plan.Lit(3))),
		plan.Scan("lineitem", "l"), plan.Anti, []string{"o.o_orderkey"}, []string{"l.l_partkey"})
	rw, f, parent := transferPlan(t, q)
	anti := f.From
	rep, ok := parent.(*plan.RepartitionNode)
	if !ok || anti.Right != plan.Node(rep) {
		t.Fatalf("fixture drift: filter sits under %T, want the anti join's shipped right input\n%s", parent, rw.Explain())
	}
	// Filter the left input by the right's keys instead: it would drop the
	// very orders an anti join outputs.
	rep.Child = f.Child
	anti.Source = plan.RightSide
	moveFilter(rw, &anti.Left, "o.o_orderkey", anti)
	expectTransfer(t, rw, "left input of a ANTI join")
}

func TestVerifyRejectsTransferIntoLeftOuterRight(t *testing.T) {
	// The nation filter's key is an orders column that reaches the join
	// through a left outer join's right input, so the filter stops above
	// that join: below it, a dropped order turns its customer's row
	// null-extended instead of dropping it.
	q := plan.Join(
		plan.Filter(plan.Scan("nation", "n"), plan.Eq(plan.Col("n.n_name"), plan.Lit(1))),
		plan.Join(plan.Scan("customer", "c"), plan.Scan("orders", "o"),
			plan.LeftOuter, []string{"c.c_custkey"}, []string{"o.o_custkey"}),
		plan.Inner, []string{"n.n_nationkey"}, []string{"o.o_custkey"})
	rw, f, parent := transferPlan(t, q)
	lo, ok := f.Child.(*plan.JoinNode)
	rep, isRep := parent.(*plan.RepartitionNode)
	if !ok || lo.Type != plan.LeftOuter || !isRep {
		t.Fatalf("fixture drift: filter over %T under %T, want a left outer join under a repartition\n%s",
			f.Child, parent, rw.Explain())
	}
	rep.Child = lo
	moveFilter(rw, &lo.Right, f.Col, f.From)
	expectTransfer(t, rw, "right input of a LEFT join")
}

func TestVerifyRejectsTransferBelowForeignAggregate(t *testing.T) {
	// Customers of one nation joined to their per-customer order totals:
	// the filter passes both aggregation phases, which group by its column.
	q := plan.Join(
		plan.Filter(plan.Scan("customer", "c"), plan.Eq(plan.Col("c.c_nation"), plan.Lit(1))),
		plan.Aggregate(plan.Scan("orders", "o"), []string{"o.o_custkey"}, plan.Sum(plan.Col("o.o_total"), "total")),
		plan.Inner, []string{"c.c_custkey"}, []string{"o.o_custkey"})
	rw, f, parent := transferPlan(t, q)
	if _, ok := parent.(*plan.PartialAggNode); !ok {
		t.Fatalf("fixture drift: filter sits under %T, want the partial aggregate\n%s", parent, rw.Explain())
	}
	// A filter on the order key below the same aggregate: the groups above
	// it are per customer, so no key of it reaches the join.
	f.Col = "o.o_orderkey"
	expectTransfer(t, rw, "aggregate that does not group by the column")
}

// TestVerifyRejectsLocalFilterAcrossExchange: the orders a shipped filter
// keeps travel to other nodes before the join, so a filter of one node's
// customers alone would drop orders that meet their customer elsewhere.
func TestVerifyRejectsLocalFilterAcrossExchange(t *testing.T) {
	q := plan.Join(
		plan.Filter(plan.Scan("customer", "c"), plan.Eq(plan.Col("c.c_nation"), plan.Lit(1))),
		plan.Scan("orders", "o"), plan.Inner, []string{"c.c_custkey"}, []string{"o.o_custkey"})
	rw, f, parent := transferPlan(t, q)
	if _, ok := parent.(*plan.RepartitionNode); !ok || f.Local {
		t.Fatalf("fixture drift: want a shipped filter under a repartition, got one under %T\n%s", parent, rw.Explain())
	}
	f.Local = true
	expectTransfer(t, rw, "is local, but reaches its join through an exchange")
}

func TestVerifyRejectsTransferOnMissingColumn(t *testing.T) {
	q := plan.Join(
		plan.Filter(plan.Scan("customer", "c"), plan.Eq(plan.Col("c.c_nation"), plan.Lit(1))),
		plan.Scan("orders", "o"), plan.Inner, []string{"c.c_custkey"}, []string{"o.o_custkey"})
	rw, f, _ := transferPlan(t, q)
	f.Col = "o.o_nope"
	expectTransfer(t, rw, "does not carry")
}

// miniStats describes miniSchema's tables for the rewrite's estimator: many
// orders of many customers spread over 25 nations.
func miniStats() *plan.Stats {
	col := func(hi int64) plan.ColStats { return plan.ColStats{Min: 1, Max: hi, NDV: float64(hi)} }
	return &plan.Stats{Tables: map[string]*plan.TableStats{
		"lineitem": {Rows: 400000, Cols: []plan.ColStats{col(100000), col(20000), col(50)}},
		"orders":   {Rows: 100000, Cols: []plan.ColStats{col(100000), col(1000), col(100000)}},
		"customer": {Rows: 1000, Cols: []plan.ColStats{col(1000), col(1000), col(25)}},
		"nation":   {Rows: 25, Cols: []plan.ColStats{col(25), col(25)}},
	}}
}

// TestBroadcastSourceFiltersEitherSide: a selective input the rewrite
// broadcasts becomes its join's filter source on either side, and filters
// the other input where it is scanned even though no exchange sits below
// it. Every node holds the whole broadcast, so the filter is local. The
// checker accepts both placements.
func TestBroadcastSourceFiltersEitherSide(t *testing.T) {
	sch := miniSchema(t)
	few := func() plan.Node {
		return plan.Filter(plan.Scan("customer", "c"), plan.Eq(plan.Col("c.c_nation"), plan.Lit(1)))
	}
	for _, c := range []struct {
		q    *plan.JoinNode
		want plan.Side
	}{
		{plan.Join(plan.Scan("orders", "o"), few(), plan.Inner, []string{"o.o_custkey"}, []string{"c.c_custkey"}), plan.RightSide},
		{plan.Join(few(), plan.Scan("orders", "o"), plan.Inner, []string{"c.c_custkey"}, []string{"o.o_custkey"}), plan.LeftSide},
	} {
		rw, err := plan.Rewrite(c.q, sch, miniHashed(t, sch), plan.Options{Stats: miniStats()})
		if err != nil {
			t.Fatal(err)
		}
		j, _ := findNode(rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.JoinNode); return ok }).(*plan.JoinNode)
		src, _ := j.SourceInput()
		if _, ok := src.(*plan.BroadcastNode); !ok || j.Source != c.want {
			t.Fatalf("want the broadcast customers as the %v source\n%s", c.want, rw.Explain())
		}
		f, _ := findNode(rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.RuntimeFilterNode); return ok }).(*plan.RuntimeFilterNode)
		if f == nil || f.Col != "o.o_custkey" || !isScan(f.Child) || !f.Local {
			t.Fatalf("want a local filter on o.o_custkey over the orders scan\n%s", rw.Explain())
		}
		if err := check.Verify(rw); err != nil {
			t.Fatalf("%v\n%s", err, rw.Explain())
		}
	}
}

func isScan(n plan.Node) bool { _, ok := n.(*plan.ScanNode); return ok }

// Forks (plan's equiv.go): a filter on a column k′ that an inner join below
// the filter's join equates with the join's key. Each case below starts
// from a rewrite whose join fires a shipped filter into an input holding a
// join x of orders and lineitem, plants a fork from that join into one of
// x's inputs, and names the checker mutation that would let it through.

// forkPlan rewrites the customers of one nation joined on jkey to x, over
// miniHashed, and returns the plan and x's rewritten join.
func forkPlan(t *testing.T, x *plan.JoinNode, jkey string) (*plan.Rewritten, *plan.JoinNode) {
	t.Helper()
	q := plan.Join(
		plan.Filter(plan.Scan("customer", "c"), plan.Eq(plan.Col("c.c_nation"), plan.Lit(1))),
		x, plan.Inner, []string{"c.c_custkey"}, []string{jkey})
	rw, _, _ := transferPlan(t, q)
	got, _ := findNode(rw.Root, func(n plan.Node) bool {
		j, ok := n.(*plan.JoinNode)
		return ok && j.Type == x.Type && j.LeftCols[0] == x.LeftCols[0]
	}).(*plan.JoinNode)
	if got == nil {
		t.Fatalf("fixture drift: no %v join on %s\n%s", x.Type, x.LeftCols[0], rw.Explain())
	}
	return rw, got
}

// plantFork wraps *slot in a fork on col from the plan's top join.
func plantFork(rw *plan.Rewritten, slot *plan.Node, col string, local bool) {
	top, _ := findNode(rw.Root, func(n plan.Node) bool {
		j, ok := n.(*plan.JoinNode)
		return ok && j.Source != plan.NoSide && j.LeftCols[0] == "c.c_custkey"
	}).(*plan.JoinNode)
	moveFilter(rw, slot, col, top).Local = local
}

func orderLines(t plan.JoinType, lcol, rcol string) *plan.JoinNode {
	return plan.Join(plan.Scan("orders", "o"), plan.Scan("lineitem", "l"), t, []string{lcol}, []string{rcol})
}

// TestVerifyAcceptsForks: a fork on l.l_partkey climbs to the join on
// o.o_custkey through an inner join that equates the two, by a key pair or
// by a top-level residual conjunct.
func TestVerifyAcceptsForks(t *testing.T) {
	byKey := orderLines(plan.Inner, "o.o_custkey", "l.l_partkey")
	byResidual := orderLines(plan.Inner, "o.o_orderkey", "l.l_orderkey")
	byResidual.Residual = plan.And(plan.Eq(plan.Col("o.o_custkey"), plan.Col("l.l_partkey")),
		plan.Gt(plan.Col("l.l_qty"), plan.Lit(5)))
	for _, x := range []*plan.JoinNode{byKey, byResidual} {
		rw, j := forkPlan(t, x, "o.o_custkey")
		plantFork(rw, &j.Right, "l.l_partkey", false)
		if err := check.Verify(rw); err != nil {
			t.Fatalf("%v\n%s", err, rw.Explain())
		}
	}
}

// TestVerifyRejectsForkThroughLeftOuter: a left outer join's key pair holds
// only on the rows it matched. It null-extends the others, and a NULL key
// still meets a NULL source key at the filter's join, so a left row the fork
// drops could have joined there. Catches: switching the tracked column at a
// join of any type (the Inner test in equated removed).
func TestVerifyRejectsForkThroughLeftOuter(t *testing.T) {
	x := plan.Join(plan.Scan("lineitem", "l"), plan.Scan("orders", "o"), plan.LeftOuter,
		[]string{"l.l_partkey"}, []string{"o.o_custkey"})
	rw, j := forkPlan(t, x, "o.o_custkey")
	plantFork(rw, &j.Left, "l.l_partkey", false)
	expectTransfer(t, rw, `filters "l.l_partkey", but its join's keys on that input are [o.o_custkey]`)
}

// TestVerifyRejectsForkFromSemiRight: no column of a semi or anti join's
// right input reaches its output, so a fork there is no filter of the
// input its join reads. Catches: a climb that treats semi and anti joins as
// inner ones (passing their right input and switching at their keys).
func TestVerifyRejectsForkFromSemiRight(t *testing.T) {
	for _, jt := range []plan.JoinType{plan.Semi, plan.Anti} {
		rw, j := forkPlan(t, orderLines(jt, "o.o_custkey", "l.l_partkey"), "o.o_custkey")
		plantFork(rw, &j.Right, "l.l_partkey", false)
		expectTransfer(t, rw, "the right input of a "+jt.String()+" join")
	}
}

// TestVerifyRejectsForkThroughNestedEquality: an `=` under OR or NOT holds
// on no particular row the join emits. Catches: reading column equalities
// anywhere in the residual rather than in its top-level conjuncts.
func TestVerifyRejectsForkThroughNestedEquality(t *testing.T) {
	eq := plan.Eq(plan.Col("o.o_custkey"), plan.Col("l.l_partkey"))
	for _, residual := range []plan.BoolExpr{
		plan.Or(eq, plan.Gt(plan.Col("l.l_qty"), plan.Lit(5))),
		plan.Not(plan.Not(eq)),
	} {
		x := orderLines(plan.Inner, "o.o_orderkey", "l.l_orderkey")
		x.Residual = residual
		rw, j := forkPlan(t, x, "o.o_custkey")
		plantFork(rw, &j.Right, "l.l_partkey", false)
		expectTransfer(t, rw, `filters "l.l_partkey", but its join's keys on that input are [o.o_custkey]`)
	}
}

// TestVerifyRejectsLocalForkAcrossExchange: the customers that build the
// filter are hashed, and the join of orders and lineitem reaches theirs
// through a repartition above the join where the fork's column switches, so
// one node's customers do not hold every key its lines meet. Catches:
// proving locality only below the join where the climb switches columns.
func TestVerifyRejectsLocalForkAcrossExchange(t *testing.T) {
	x := orderLines(plan.Inner, "o.o_orderkey", "l.l_orderkey")
	x.Residual = plan.Eq(plan.Col("o.o_custkey"), plan.Col("l.l_partkey"))
	rw, j := forkPlan(t, x, "o.o_custkey")
	top := findNode(rw.Root, func(n plan.Node) bool {
		t, ok := n.(*plan.JoinNode)
		return ok && t.LeftCols[0] == "c.c_custkey"
	}).(*plan.JoinNode)
	if rep, ok := top.Right.(*plan.RepartitionNode); !ok || rep.Child != plan.Node(j) {
		t.Fatalf("fixture drift: want the orders-lineitem join under a repartition\n%s", rw.Explain())
	}
	plantFork(rw, &j.Right, "l.l_partkey", true)
	expectTransfer(t, rw, "is local, but reaches its join through an exchange")
}
