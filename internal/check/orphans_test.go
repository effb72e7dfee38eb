package check_test

import (
	"context"
	"reflect"
	"testing"

	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/engine"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/value"
)

// Sums in place. An aggregate over orders ⋈ lineitem grouped by orders' key,
// on a design where lineitem is PREF on orders by that key and orders is
// hashed on custkey: the eager form sums lineitem per order where it lies and
// joins the sums to orders without an exchange. Its orphan groups — lineitem
// rows whose order does not exist, placed round-robin — may be split across
// partitions, so the verifier lets only a filter, a projection or the inner
// join on the PREF predicate consume the sums.

// prefSumsCfg hashes orders on custkey and places lineitem by PREF on
// orders' key: duplicate-free, and not hash-equivalent.
func prefSumsCfg(t *testing.T, sch *catalog.Schema) *partition.Config {
	t.Helper()
	cfg := partition.NewConfig(4)
	cfg.SetHash("orders", "o_custkey")
	cfg.SetPref("lineitem", "orders", []string{"l_orderkey"}, []string{"o_orderkey"})
	cfg.SetHash("customer", "c_custkey")
	cfg.SetReplicated("nation")
	if err := cfg.Validate(sch); err != nil {
		t.Fatalf("fixture config invalid: %v", err)
	}
	return cfg
}

// prefSumsQuery sums lineitem's quantity per order, keeping the orders whose
// line count passes having.
func prefSumsQuery(having int64) plan.Node {
	j := plan.Join(plan.Scan("orders", "o"), plan.Scan("lineitem", "l"), plan.Inner,
		[]string{"o.o_orderkey"}, []string{"l.l_orderkey"})
	agg := plan.Aggregate(j, []string{"o.o_orderkey"}, plan.Sum(plan.Col("l.l_qty"), "q"), plan.Count("cnt"))
	return plan.Filter(agg, plan.Gt(plan.Col("cnt"), plan.Lit(having)))
}

// prefSums rewrites prefSumsQuery and returns the plan, its sums (the
// aggregate marked with lineitem's orphans) and the join that consumes them.
func prefSums(t *testing.T) (*plan.Rewritten, *plan.AggregateNode, *plan.JoinNode) {
	t.Helper()
	sch := miniSchema(t)
	rw := mustRewrite(t, prefSumsQuery(0), sch, prefSumsCfg(t, sch))
	sums, _ := findNode(rw.Root, func(n plan.Node) bool {
		_, ok := n.(*plan.AggregateNode)
		return ok && rw.Props[n].Orphans == "l"
	}).(*plan.AggregateNode)
	j, _ := findNode(rw.Root, func(n plan.Node) bool {
		j, ok := n.(*plan.JoinNode)
		return ok && findNode(j.Right, func(x plan.Node) bool { return x == sums }) != nil
	}).(*plan.JoinNode)
	if sums == nil || j == nil {
		t.Fatalf("fixture drift: no sums in place under a join:\n%s", rw.Explain())
	}
	if err := check.Verify(rw); err != nil {
		t.Fatalf("the rewrite's plan fails verification: %v\n%s", err, rw.Explain())
	}
	return rw, sums, j
}

// expectOrphanConsumer asserts Verify reports a locality violation at
// consumer.
func expectOrphanConsumer(t *testing.T, rw *plan.Rewritten, consumer plan.Node) {
	t.Helper()
	err := check.Verify(rw)
	for _, v := range check.ViolationsOf(err) {
		if v.Rule == check.RuleLocality && v.Node == consumer {
			return
		}
	}
	t.Fatalf("want a %s violation at %s, got %v\n%s", check.RuleLocality, consumer, err, rw.Explain())
}

// note records an operator built by hand the way the rewrite would.
func note(rw *plan.Rewritten, n plan.Node, sch plan.Schema, p *plan.Prop) plan.Node {
	rw.Schemas[n], rw.Props[n] = sch, p
	return n
}

func TestVerifyRejectsGatheredSplitSums(t *testing.T) {
	rw, sums, _ := prefSums(t)
	g := note(rw, &plan.GatherNode{Child: sums}, rw.Schemas[sums], &plan.Prop{Parts: 4, Gathered: true})
	rw.Root = g
	expectOrphanConsumer(t, rw, g)
}

func TestVerifyRejectsRepartitionedSplitSums(t *testing.T) {
	rw, sums, _ := prefSums(t)
	hashed := func() *plan.Prop {
		p := &plan.Prop{Parts: 4, Placed: map[string]plan.PlacedEntry{}}
		p.SetHashCols([]string{"l.l_orderkey"})
		return p
	}
	rep := note(rw, &plan.RepartitionNode{Child: sums, Cols: []string{"l.l_orderkey"}}, rw.Schemas[sums], hashed())
	fin := note(rw, &plan.AggregateNode{Child: rep, GroupBy: []string{"l.l_orderkey"}, Aggs: []plan.AggExpr{plan.Sum(plan.Col("q"), "q2")}},
		plan.Schema{{Name: "l.l_orderkey", Kind: value.Int}, {Name: "q2", Kind: value.Int}}, hashed())
	rw.Root = fin
	expectOrphanConsumer(t, rw, rep)
}

func TestVerifyRejectsReaggregatedSplitSums(t *testing.T) {
	rw, sums, _ := prefSums(t)
	// Grouping the sums again by the PREF key is local by placement, but it
	// would return each part of a split orphan group as a group of its own.
	again := note(rw, &plan.AggregateNode{Child: sums, GroupBy: []string{"l.l_orderkey"}, Aggs: []plan.AggExpr{plan.Sum(plan.Col("q"), "q2")}},
		plan.Schema{{Name: "l.l_orderkey", Kind: value.Int}, {Name: "q2", Kind: value.Int}},
		&plan.Prop{Parts: 4, Placed: map[string]plan.PlacedEntry{"l": rw.Props[sums].Placed["l"]}, Orphans: "l"})
	g := note(rw, &plan.GatherNode{Child: again}, rw.Schemas[again], &plan.Prop{Parts: 4, Gathered: true})
	rw.Root = g
	expectOrphanConsumer(t, rw, again)
}

func TestVerifyRejectsSplitSumsJoinedOffTheirPredicate(t *testing.T) {
	rw, sums, _ := prefSums(t)
	// A replicated right input joins anything locally, so only the orphan
	// rule sees that each part of a split orphan group finds its partner.
	n := note(rw, &plan.ScanNode{Table: "nation", Alias: "n"},
		plan.Schema{{Name: "n.n_nationkey", Kind: value.Int}, {Name: "n.n_name", Kind: value.Str}},
		&plan.Prop{Parts: 4, Repl: true, Placed: map[string]plan.PlacedEntry{}})
	j := &plan.JoinNode{Left: sums, Right: n, Type: plan.Inner,
		LeftCols: []string{"l.l_orderkey"}, RightCols: []string{"n.n_nationkey"}}
	note(rw, j, rw.Schemas[sums].Concat(rw.Schemas[n]), &plan.Prop{Parts: 4, Placed: map[string]plan.PlacedEntry{}})
	g := note(rw, &plan.GatherNode{Child: j}, rw.Schemas[j], &plan.Prop{Parts: 4, Gathered: true})
	rw.Root = g
	expectOrphanConsumer(t, rw, j)
}

func TestVerifyRejectsSplitSumsAsTheResult(t *testing.T) {
	rw, sums, _ := prefSums(t)
	rw.Root = sums
	expectOrphanConsumer(t, rw, sums)
}

func TestVerifyRejectsUnmarkedSplitSums(t *testing.T) {
	rw, sums, _ := prefSums(t)
	rw.Props[sums].Orphans = "" // a claim that every group is whole
	expectRule(t, rw, check.RuleStaleProp)
}

// orphanDB fills miniSchema with eight orders and their lines, plus lines of
// two orders that do not exist: five of order 100 and three of order 101,
// each sharing a key the round-robin orphan rule spreads over partitions.
func orphanDB(sch *catalog.Schema) *table.Database {
	db := table.NewDatabase(sch)
	for k := int64(0); k < 8; k++ {
		db.Tables["orders"].MustAppend(value.Tuple{k, k % 3, 100 * k})
		for line := int64(0); line <= k%4; line++ {
			db.Tables["lineitem"].MustAppend(value.Tuple{k, line, k + line})
		}
	}
	for line := int64(0); line < 8; line++ {
		key := int64(100)
		if line >= 5 {
			key = 101
		}
		db.Tables["lineitem"].MustAppend(value.Tuple{key, line, 7})
	}
	for c := int64(0); c < 3; c++ {
		db.Tables["customer"].MustAppend(value.Tuple{c, 0, 0})
	}
	db.Tables["nation"].MustAppend(value.Tuple{0, 0})
	return db
}

// TestSplitOrphanSumsMatchOneNode runs the sums in place over a store whose
// orphan groups really are split, under the verifier, and compares every
// HAVING threshold's rows with one node's.
func TestSplitOrphanSumsMatchOneNode(t *testing.T) {
	sch := miniSchema(t)
	cfg := prefSumsCfg(t, sch)
	db := orphanDB(sch)
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	holding := map[int64]int{} // orphan key -> partitions holding it
	for _, p := range pdb.Snapshot().Parts("lineitem") {
		seen := map[int64]bool{}
		for i := 0; i < p.Len(); i++ {
			if k := p.Row(i)[0]; !p.HasRef(i) && !seen[k] {
				seen[k] = true
				holding[k]++
			}
		}
	}
	if holding[100] < 2 {
		t.Fatalf("fixture drift: orphan order 100 sits on %d partition(s), want it split", holding[100])
	}

	one := partition.NewConfig(1)
	for _, name := range sch.TableNames() {
		one.SetHash(name, sch.Table(name).Columns[0].Name)
	}
	pdb1, err := partition.Apply(db, one)
	if err != nil {
		t.Fatal(err)
	}
	for _, having := range []int64{0, 1, 2, 3} {
		q := prefSumsQuery(having)
		rw := mustRewrite(t, q, sch, cfg)
		if findNode(rw.Root, func(n plan.Node) bool { return rw.Props[n].Orphans == "l" }) == nil {
			t.Fatalf("having %d: fixture drift: the rewrite does not sum in place:\n%s", having, rw.Explain())
		}
		got, err := engine.ExecuteCtx(context.Background(), rw, pdb, engine.ExecOptions{Verify: true})
		if err != nil {
			t.Fatalf("having %d: %v\n%s", having, err, rw.Explain())
		}
		want, err := engine.ExecuteCtx(context.Background(), mustRewrite(t, q, sch, one), pdb1, engine.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got.SortRows()
		want.SortRows()
		if len(want.Rows) == 0 || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("having %d: got %v, one node %v\n%s", having, got.Rows, want.Rows, rw.Explain())
		}
	}
}
