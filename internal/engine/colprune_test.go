package engine

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/value"
)

// Column pruning, end to end: the answers are the single-node oracle's and
// hand-computed ones — an oracle that runs the same pruning pass cannot
// catch a pruning bug that every layout shares.

// findPlan returns the first operator (pre-order) that pred accepts.
func findPlan(n plan.Node, pred func(plan.Node) bool) plan.Node {
	if pred(n) {
		return n
	}
	for _, c := range n.Children() {
		if m := findPlan(c, pred); m != nil {
			return m
		}
	}
	return nil
}

func isJoin(n plan.Node) bool { _, ok := n.(*plan.JoinNode); return ok }

// Top-k breaks ties by the full row, so nothing beneath it may be pruned even
// when the operator above reads a single column: with qty tied, the survivors
// are decided by l.linekey — a column the projection never asks for.
func TestTopKIsAPruningBarrier(t *testing.T) {
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("lineitem", "l"), plan.Scan("orders", "o"),
			plan.Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
		top := plan.TopK(j, 10, plan.OrderSpec{Col: "l.qty", Desc: true})
		return plan.ProjectCols(top, "o.total")
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})

	// By hand: lineitem i is (i, i%50, i%7) and order k costs 10+k. The top
	// qty is 6; its ten lowest line keys are 6, 13, …, 69.
	var want []value.Tuple
	for i := int64(6); len(want) < 10; i += 7 {
		want = append(want, value.Tuple{value.FromMoney(float64(10 + i%50))})
	}
	sort.Slice(want, func(i, j int) bool { return want[i][0] < want[j][0] })
	if got := res["all-hashed"].Rows; !reflect.DeepEqual(got, want) {
		t.Fatalf("tied top-k under a one-column projection:\ngot:  %v\nwant: %v", got, want)
	}

	db := testDB(t)
	cfg := testConfigs(4)["all-hashed"]
	rw, err := plan.Rewrite(mk(), db.Schema, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := findPlan(rw.Root, isJoin)
	if got := len(rw.Schema(j)); got != 6 {
		t.Fatalf("join beneath top-k records %d columns, want all 6:\n%s", got, rw.Explain())
	}
}

// With the dup index disabled PREF duplicates are removed by value, and a
// row's identity is every visible column: pruning the join beneath the
// distinct down to the one column the aggregate groups by would merge the
// four customers of a nation into one.
func TestDistinctByValueIsAPruningBarrier(t *testing.T) {
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("customer", "c"), plan.Scan("nation", "n"),
			plan.Inner, []string{"c.nationkey"}, []string{"n.nationkey"})
		return plan.Aggregate(j, []string{"n.nationkey"}, plan.Count("cnt"))
	}
	opt := plan.Options{DisableDupIndex: true}
	res := assertAllConfigsAgree(t, mk, opt)
	// By hand: customer i lives in nation i%5 — 20 customers, 4 a nation.
	if got := res["reference-1node"].Rows; len(got) != 5 {
		t.Fatalf("%d nations, want 5: %v", len(got), got)
	}
	for _, r := range res["reference-1node"].Rows {
		if r[1] != 4 {
			t.Fatalf("nation %d: %d customers, want 4", r[0], r[1])
		}
	}

	db := testDB(t)
	reached := false
	for name, cfg := range testConfigs(4) {
		rw, err := plan.Rewrite(mk(), db.Schema, cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := findPlan(rw.Root, func(n plan.Node) bool {
			d, ok := n.(*plan.DistinctByValueNode)
			return ok && isJoin(d.Child)
		}).(*plan.DistinctByValueNode)
		if d == nil {
			continue
		}
		reached = true
		j := d.Child.(*plan.JoinNode)
		full := len(rw.Schema(j.Left)) + len(rw.Schema(j.Right))
		if got := len(rw.Schema(j)); got != full {
			t.Errorf("%s: join beneath value-distinct records %d of %d columns:\n%s", name, got, full, rw.Explain())
		}
	}
	if !reached {
		t.Fatal("fixture drift: no config puts a value-distinct over the join")
	}
}

// A left-outer join null-extends exactly the build columns it emits.
func TestPrunedLeftOuterNullExtends(t *testing.T) {
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("customer", "c"), plan.Scan("orders", "o"),
			plan.LeftOuter, []string{"c.custkey"}, []string{"o.custkey"})
		return plan.ProjectCols(j, "c.custkey", "o.total")
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	// By hand: customers 0..15 have the orders k with k%16 == custkey;
	// customers 16..19 have none and come out once, null-extended.
	var want []value.Tuple
	for k := int64(0); k < 50; k++ {
		want = append(want, value.Tuple{k % 16, value.FromMoney(float64(10 + k))})
	}
	for c := int64(16); c < 20; c++ {
		want = append(want, value.Tuple{c, plan.Null})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i][0] != want[j][0] {
			return want[i][0] < want[j][0]
		}
		return want[i][1] < want[j][1]
	})
	if got := res["pref-chain"].Rows; !reflect.DeepEqual(got, want) {
		t.Fatalf("pruned left-outer join:\ngot:  %v\nwant: %v", trunc(got), trunc(want))
	}

	db := testDB(t)
	rw, err := plan.Rewrite(mk(), db.Schema, testConfigs(4)["all-hashed"], plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want2 := []string{"c.custkey", "o.total"}
	if got := rw.Schema(findPlan(rw.Root, isJoin)).Names(); !reflect.DeepEqual(got, want2) {
		t.Fatalf("left-outer join emits %v, want %v", got, want2)
	}
}

// A residual predicate reads columns of both inputs that the join does not
// emit: they are flattened into the build side and compared, never written.
func TestPrunedJoinResidualReadsUnemittedColumns(t *testing.T) {
	mk := func() plan.Node {
		j := &plan.JoinNode{
			Left: plan.Scan("orders", "o"), Right: plan.Scan("customer", "c"),
			Type: plan.Inner, LeftCols: []string{"o.custkey"}, RightCols: []string{"c.custkey"},
			Residual: plan.And(
				plan.Lt(plan.Col("c.nationkey"), plan.Lit(3)),
				plan.Gt(plan.Col("o.total"), plan.MoneyLit(30))),
		}
		return plan.ProjectCols(j, "o.orderkey")
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	// By hand: order k (total 10+k) of customer k%16 in nation (k%16)%5.
	var want []value.Tuple
	for k := int64(0); k < 50; k++ {
		if (k%16)%5 < 3 && 10+k > 30 {
			want = append(want, value.Tuple{k})
		}
	}
	if got := res["all-hashed"].Rows; !reflect.DeepEqual(got, want) {
		t.Fatalf("pruned join with residual:\ngot:  %v\nwant: %v", got, want)
	}

	db := testDB(t)
	rw, err := plan.Rewrite(mk(), db.Schema, testConfigs(4)["all-hashed"], plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rw.Schema(findPlan(rw.Root, isJoin)).Names(); !reflect.DeepEqual(got, []string{"o.orderkey"}) {
		t.Fatalf("join emits %v, want only o.orderkey:\n%s", got, rw.Explain())
	}
}

// An exchange of raw rows is charged its recorded width, not its child's:
// line items are hashed on linekey, so joining them to orders re-partitions
// them by orderkey carrying the key and the one column summed above.
func TestRepartitionMeteringPrunedWidth(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["all-hashed"]
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := plan.Join(plan.Scan("lineitem", "l"), plan.Scan("orders", "o"),
		plan.Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
	rw, err := plan.Rewrite(plan.Aggregate(j, nil, plan.Sum(plan.Col("l.qty"), "qty")),
		db.Schema, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := findPlan(rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.RepartitionNode); return ok }).(*plan.RepartitionNode)
	if rep == nil {
		t.Fatalf("fixture drift: no repartition:\n%s", rw.Explain())
	}
	if got := rw.Schema(rep).Names(); !reflect.DeepEqual(got, []string{"l.orderkey", "l.qty"}) {
		t.Fatalf("repartition ships %v, want [l.orderkey l.qty]", got)
	}
	res, err := ExecuteCtx(context.Background(), rw, pdb, ExecOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	crossing := 0
	for _, r := range db.Tables["lineitem"].Rows {
		if value.MakeKey1(r[0]).Hash()%4 != value.MakeKey1(r[1]).Hash()%4 {
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("degenerate fixture: no line item crosses a node boundary")
	}
	// Line items crossing × 2 of their 3 columns × 8 B, plus the 3 remote
	// partitions' one-column partial sums gathered at the coordinator.
	if want := int64(crossing*2*8 + 3*1*8); res.Stats.BytesShipped != want {
		t.Fatalf("BytesShipped = %d, want %d (%d line items cross)", res.Stats.BytesShipped, want, crossing)
	}
}

// A projection in the middle of a plan drops the expressions nobody reads —
// in the physical node only: the logical plan it was rewritten from keeps its
// lists.
func TestPrunedProjectDropsUnreadExpressions(t *testing.T) {
	var logical *plan.ProjectNode
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("lineitem", "l"), plan.Scan("orders", "o"),
			plan.Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
		logical = plan.Project(j, []string{"cust", "total", "qty"},
			[]plan.ValExpr{plan.Col("o.custkey"), plan.Col("o.total"), plan.Col("l.qty")})
		return plan.Aggregate(logical, []string{"cust"}, plan.Sum(plan.Col("qty"), "qty"))
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	// By hand: lineitem i (qty i%7) belongs to order i%50 of customer
	// (i%50)%16.
	sum := map[int64]int64{}
	for i := int64(0); i < 150; i++ {
		sum[(i%50)%16] += i % 7
	}
	if got := res["reference-1node"].Rows; len(got) != len(sum) {
		t.Fatalf("%d customers, want %d", len(got), len(sum))
	}
	for _, r := range res["reference-1node"].Rows {
		if r[1] != sum[r[0]] {
			t.Fatalf("customer %d: qty %d, want %d", r[0], r[1], sum[r[0]])
		}
	}

	db := testDB(t)
	rw, err := plan.Rewrite(mk(), db.Schema, testConfigs(4)["pref-chain"], plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := findPlan(rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.ProjectNode); return ok }).(*plan.ProjectNode)
	if p == nil {
		t.Fatalf("fixture drift: no projection:\n%s", rw.Explain())
	}
	if want := []string{"cust", "qty"}; !reflect.DeepEqual(p.Names, want) || !reflect.DeepEqual(rw.Schema(p).Names(), want) || len(p.Exprs) != 2 {
		t.Fatalf("projection keeps %v (schema %v, %d exprs), want %v", p.Names, rw.Schema(p).Names(), len(p.Exprs), want)
	}
	if len(logical.Names) != 3 || len(logical.Exprs) != 3 {
		t.Fatalf("pruning narrowed the logical projection to %v", logical.Names)
	}
	if got := rw.Schema(findPlan(rw.Root, isJoin)).Names(); !reflect.DeepEqual(got, []string{"l.qty", "o.custkey"}) {
		t.Fatalf("join beneath the projection emits %v, want [l.qty o.custkey]", got)
	}
}
