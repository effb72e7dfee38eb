package plan

import (
	"math"
	"strings"
	"testing"

	"pref/internal/partition"
	"pref/internal/stats"
	"pref/internal/value"
)

// equivalence matching: after l⋈ps on (partkey,suppkey), a join on
// ps.partkey matches part's scheme declared against... (see tpch Q9).
func TestEquivalenceMatchingThroughJoin(t *testing.T) {
	s := testSchema() // customer/orders/lineitem/nation
	cfg := partition.NewConfig(4)
	cfg.SetHash("customer", "custkey")
	cfg.SetPref("orders", "customer", []string{"custkey"}, []string{"custkey"})
	cfg.SetPref("lineitem", "orders", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetReplicated("nation")

	// (o ⋈ l on orderkey) then join customer on o.custkey=c.custkey:
	// direct match. Now the same but joining on l-side equivalent column:
	// after the inner join, l.orderkey ≡ o.orderkey; a (contrived) second
	// join keyed through the equivalence must still be local.
	ol := Join(Scan("orders", "o"), Scan("lineitem", "l"),
		Inner, []string{"o.orderkey"}, []string{"l.orderkey"})
	// join customer via o.custkey (customer referenced by orders' scheme).
	j := Join(ol, Scan("customer", "c"), Inner, []string{"o.custkey"}, []string{"c.custkey"})
	rw, err := Rewrite(j, s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw.Root, isRepart) != 0 {
		t.Fatalf("chain join must stay local:\n%s", Format(rw.Root))
	}
	p := rw.Props[rw.Root]
	if !p.EquivSame("o.orderkey", "l.orderkey") {
		t.Fatal("inner join must record o.orderkey ≡ l.orderkey")
	}
}

func TestEquivClassesMergeTransitively(t *testing.T) {
	var classes [][]string
	classes = AddEquiv(classes, "a", "b")
	classes = AddEquiv(classes, "c", "d")
	classes = AddEquiv(classes, "b", "c") // merges both groups
	p := &Prop{Equiv: classes}
	if !p.EquivSame("a", "d") {
		t.Fatalf("a ≡ d should hold transitively, classes = %v", classes)
	}
	if p.EquivSame("a", "zzz") {
		t.Fatal("unrelated columns must not be equivalent")
	}
	if !p.EquivSame("x", "x") {
		t.Fatal("reflexivity")
	}
}

func TestOuterJoinDoesNotAddEquivalence(t *testing.T) {
	s := testSchema()
	cfg := prefChainCfg(4)
	j := Join(Scan("customer", "c"), Scan("orders", "o"),
		LeftOuter, []string{"c.custkey"}, []string{"o.custkey"})
	rw, err := Rewrite(j, s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := rw.Props[rw.Root]
	// o.custkey can be NULL on unmatched rows: not equivalent.
	if p.EquivSame("c.custkey", "o.custkey") {
		t.Fatal("left outer join must not record predicate equivalence")
	}
}

// testStats describes testSchema's tables: rows, and per column in schema
// order its value range and distinct count.
func testStats(orders, customer, lineitem int) *Stats {
	col := func(lo, hi int64, ndv int) ColStats { return ColStats{Min: lo, Max: hi, NDV: float64(ndv)} }
	return &Stats{Tables: map[string]*TableStats{
		"customer": {Rows: float64(customer), Cols: []ColStats{col(1, int64(customer), customer), col(1, int64(customer), customer)}},
		"orders": {Rows: float64(orders), Cols: []ColStats{
			col(1, int64(orders), orders), col(1, int64(customer), min(orders, customer)), col(0, 9999, min(orders, 10000))}},
		"lineitem": {Rows: float64(lineitem), Cols: []ColStats{
			col(1, int64(lineitem), lineitem), col(1, int64(orders), min(orders, lineitem))}},
		"nation": {Rows: 5, Cols: []ColStats{col(0, 4, 5), col(0, 1, 2)}},
	}}
}

// misalignedCfg hashes orders on its key and customer on its name, so a
// join on custkey finds neither input aligned.
func misalignedCfg() *partition.Config {
	cfg := partition.NewConfig(8)
	cfg.SetHash("orders", "orderkey")
	cfg.SetHash("customer", "name")
	cfg.SetHash("lineitem", "linekey")
	cfg.SetReplicated("nation")
	return cfg
}

func isBroadcast(n Node) bool { _, ok := n.(*BroadcastNode); return ok }

func TestBroadcastHeuristic(t *testing.T) {
	s := testSchema()
	cfg := misalignedCfg()
	mk := func() *JoinNode {
		return Join(Scan("orders", "o"), Scan("customer", "c"),
			Inner, []string{"o.custkey"}, []string{"c.custkey"})
	}

	// A tiny customer table is broadcast instead of shuffling both inputs.
	rw, err := Rewrite(mk(), s, cfg, Options{Stats: testStats(100000, 50, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw.Root, isBroadcast) != 1 || countNodes(rw.Root, isRepart) != 0 {
		t.Fatalf("tiny side should broadcast:\n%s", Format(rw.Root))
	}

	// Comparable sizes: repartition both.
	rw2, err := Rewrite(mk(), s, cfg, Options{Stats: testStats(1000, 900, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw2.Root, isBroadcast) != 0 {
		t.Fatalf("comparable sides must repartition:\n%s", Format(rw2.Root))
	}

	// No statistics: no estimate, no broadcast.
	rw3, err := Rewrite(mk(), s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw3.Root, isBroadcast) != 0 {
		t.Fatal("no statistics ⇒ no broadcast")
	}
}

// TestBroadcastAlignedSide prices the case where one input already sits on
// the join key: re-partitioning the other ships it whole, and broadcasting a
// small aligned input instead ships far less.
func TestBroadcastAlignedSide(t *testing.T) {
	s := testSchema()
	cfg := misalignedCfg()
	q := func() *JoinNode {
		return Join(Scan("lineitem", "l"), Scan("orders", "o"),
			Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
	}
	rw, err := Rewrite(q(), s, cfg, Options{Stats: testStats(50, 10, 100000)})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw.Root, isBroadcast) != 1 || countNodes(rw.Root, isRepart) != 0 {
		t.Fatalf("the tiny aligned orders should broadcast:\n%s", Format(rw.Root))
	}
	// A large aligned input stays put and only lineitem moves, as without
	// statistics.
	rw2, err := Rewrite(q(), s, cfg, Options{Stats: testStats(50000, 10, 100000)})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Rewrite(q(), s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rw2.Explain() != plain.Explain() || countNodes(rw2.Root, isRepart) != 1 {
		t.Fatalf("a large aligned input must keep the repartition:\n%s", rw2.Explain())
	}
}

func TestBroadcastLeftOnlyForInner(t *testing.T) {
	s := testSchema()
	cfg := misalignedCfg()
	st := testStats(50, 100000, 1)

	// Inner: left (orders) is tiny → broadcast left.
	inner := Join(Scan("orders", "o"), Scan("customer", "c"),
		Inner, []string{"o.custkey"}, []string{"c.custkey"})
	rw, err := Rewrite(inner, s, cfg, Options{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw.Root, isBroadcast) != 1 {
		t.Fatalf("inner join should broadcast the tiny left side:\n%s", Format(rw.Root))
	}

	// Anti: broadcasting the LEFT (output) side is unsound — must not.
	anti := Join(Scan("orders", "o2"), Scan("customer", "c2"),
		Anti, []string{"o2.custkey"}, []string{"c2.custkey"})
	rw2, err := Rewrite(anti, s, cfg, Options{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range findNodes(rw2.Root, isBroadcast) {
		if strings.Contains(Format(n), "orders") {
			t.Fatalf("anti join must not broadcast its left side:\n%s", Format(rw2.Root))
		}
	}
}

// estimate rewrites the logical plan q with st and returns the estimator's
// row count for its physical root.
func estimate(t *testing.T, q Node, cfg *partition.Config, st *Stats) float64 {
	t.Helper()
	r := newRewriter(q, testSchema(), cfg, Options{Stats: st})
	phys, _, _, err := r.rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	return r.rows(phys)
}

func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want)) }

func TestEstimateRows(t *testing.T) {
	cfg := misalignedCfg()
	st := testStats(1000, 100, 4000)
	o := func() Node { return Scan("orders", "o") }
	for _, c := range []struct {
		name string
		q    Node
		want float64
	}{
		{"scan", o(), 1000},
		// o.total spans [0, 9999]: the upper half keeps half the rows.
		{"range", Filter(o(), Ge(Col("o.total"), Lit(5000))), 500},
		// Ranges on one column intersect: [101, 200] of [1, 1000] is a
		// tenth, not the product of 0.9 and 0.2.
		{"same-column ranges", Filter(o(), And(Ge(Col("o.orderkey"), Lit(101)), Le(Col("o.orderkey"), Lit(200)))), 100},
		{"disjoint ranges", Filter(o(), And(Gt(Col("o.orderkey"), Lit(500)), Lt(Col("o.orderkey"), Lit(400)))), 0},
		{"equality", Filter(o(), Eq(Col("o.custkey"), Lit(7))), 10},
		{"in", Filter(o(), In("o.custkey", 1, 2, 3)), 30},
		{"or", Filter(o(), Or(Eq(Col("o.custkey"), Lit(7)), Eq(Col("o.custkey"), Lit(8)))), 1000 * (1 - 0.99*0.99)},
		{"and of columns", Filter(o(), And(Eq(Col("o.custkey"), Lit(7)), Ge(Col("o.total"), Lit(5000)))), 5},
	} {
		if got := estimate(t, c.q, cfg, st); !near(got, c.want) {
			t.Errorf("%s: %v rows, want %v", c.name, got, c.want)
		}
	}
}

// TestEstimateJoinContainment holds join estimates to |L|·|R|/max(ndv) and
// semi and anti joins to the share of the left keys the right contains.
func TestEstimateJoinContainment(t *testing.T) {
	cfg := misalignedCfg()
	st := testStats(1000, 100, 4000)
	lo := func() Node {
		return Filter(Scan("lineitem", "l"), Le(Col("l.orderkey"), Lit(100)))
	}
	for _, c := range []struct {
		name string
		q    Node
		want float64
	}{
		{"key join", Join(Scan("lineitem", "l"), Scan("orders", "o"), Inner,
			[]string{"l.orderkey"}, []string{"o.orderkey"}), 4000},
		// 400 lines on 100 orders: each meets its one order.
		{"filtered key join", Join(lo(), Scan("orders", "o"), Inner,
			[]string{"l.orderkey"}, []string{"o.orderkey"}), 400},
		// The 400 lines hold 100·(1 − 0.99⁴⁰⁰) of the 100 keys their range
		// allows: k rows drawn from d values hold ExpectedCopiesReal(k, d).
		{"semi", Join(Scan("orders", "o"), lo(), Semi,
			[]string{"o.orderkey"}, []string{"l.orderkey"}), stats.ExpectedCopiesReal(400, 100)},
		{"anti", Join(Scan("orders", "o"), lo(), Anti,
			[]string{"o.orderkey"}, []string{"l.orderkey"}), 1000 - stats.ExpectedCopiesReal(400, 100)},
	} {
		if got := estimate(t, c.q, cfg, st); !near(got, c.want) {
			t.Errorf("%s: %v rows, want %v", c.name, got, c.want)
		}
	}
}

// TestEstimatePartialAggCopies: a partial aggregate over input its group-by
// does not cover emits each group once per partition holding one of its
// rows — stats.ExpectedCopiesReal(rows per group, n), the paper's Appendix A.
func TestEstimatePartialAggCopies(t *testing.T) {
	s := testSchema()
	cfg := misalignedCfg()
	st := testStats(1000, 100, 4000)
	q := Aggregate(Scan("lineitem", "l"), []string{"l.orderkey"}, Count("n"))
	r := newRewriter(q, s, cfg, Options{Stats: st})
	phys, _, _, err := r.rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	partials := findNodes(phys, func(n Node) bool { _, ok := n.(*PartialAggNode); return ok })
	if len(partials) != 1 {
		t.Fatalf("fixture drift: want one partial aggregate\n%s", Format(phys))
	}
	if got, want := r.rows(partials[0]), 1000*stats.ExpectedCopiesReal(4, 8); !near(got, want) {
		t.Errorf("partial aggregate: %v rows, want %v", got, want)
	}
	if got := r.rows(phys); !near(got, 1000) {
		t.Errorf("final aggregate: %v rows, want one per order", got)
	}
}

func TestLocalAggViaSetContainment(t *testing.T) {
	s := testSchema()
	cfg := partition.NewConfig(4)
	cfg.SetHash("orders", "custkey")
	cfg.SetHash("customer", "custkey")
	cfg.SetHash("lineitem", "linekey")
	cfg.SetReplicated("nation")
	// Group by (total, custkey): custkey is NOT a prefix but covers the
	// hash column — local per the set-containment rule.
	agg := Aggregate(Scan("orders", "o"), []string{"o.total", "o.custkey"}, Count("n"))
	rw, err := Rewrite(agg, s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw.Root, isRepart) != 0 {
		t.Fatalf("covered group-by must aggregate locally:\n%s", Format(rw.Root))
	}
}

func TestDupFreeChainScanHasNoDupCols(t *testing.T) {
	s := testSchema()
	// customer HASH(custkey); orders PREF on customer (custkey = pk):
	// orders is dup-free but NOT hash-equivalent on any of its own
	// columns' hash... actually it IS hash-equivalent (custkey mapped).
	// Use a two-hop chain where equivalence breaks but dup-freeness holds:
	// lineitem PREF on orders via orderkey (pk of orders).
	cfg := partition.NewConfig(4)
	cfg.SetHash("customer", "custkey")
	cfg.SetPref("orders", "customer", []string{"custkey"}, []string{"custkey"})
	cfg.SetPref("lineitem", "orders", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetReplicated("nation")

	if _, ok := cfg.HashEquivalent("lineitem"); ok {
		t.Fatal("lineitem must not be hash-equivalent (orderkey ∉ orders' equivalent cols)")
	}
	if !cfg.DupFree(s, "lineitem") {
		t.Fatal("lineitem must be provably dup-free (unique-key chain)")
	}
	rw, err := Rewrite(Scan("lineitem", "l"), s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rw.RootProp().Dup() {
		t.Fatalf("dup-free chain scan must carry no dup columns: %v", rw.RootProp())
	}
}

// TestEstimateMonotoneColumn: a column a projection computes by a monotone
// function of one column ranges over the function of its argument's range,
// and holds no more values than that range or the argument; any other
// computed column may hold one per row. The group count of an aggregate by
// it follows.
func TestEstimateMonotoneColumn(t *testing.T) {
	st := testStats(1000, 100, 4000) // o.total: [0, 9999], 1000 values
	thousands := Monotone("thousands", value.Int, "o.total", func(v int64) int64 { return v / 1000 })
	plain := F("thousands", value.Int, []string{"o.total"}, func(v []int64) int64 { return v[0] / 1000 })
	narrow := Filter(Scan("orders", "o"), And(Ge(Col("o.total"), Lit(2000)), Le(Col("o.total"), Lit(3999))))
	for _, c := range []struct {
		name        string
		in          Node
		e           ValExpr
		ndv, lo, hi float64
		ranged      bool
	}{
		{"monotone", Scan("orders", "o"), thousands, 10, 0, 9, true},
		{"monotone over a narrowed argument", narrow, thousands, 2, 2, 3, true},
		{"monotone over a key", Scan("orders", "o"), Monotone("half", value.Int, "o.orderkey", func(v int64) int64 { return v / 2 }), 501, 0, 500, true},
		{"not declared monotone", Scan("orders", "o"), plain, 1000, 0, 0, false},
	} {
		q := Project(c.in, []string{"k"}, []ValExpr{c.e})
		r := newRewriter(q, testSchema(), misalignedCfg(), Options{Stats: st})
		phys, _, _, err := r.rewrite(q)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := r.col(phys, "k")
		if !ok || !near(got.ndv, min(c.ndv, r.rows(phys))) || got.ranged() != c.ranged ||
			c.ranged && (got.lo != c.lo || got.hi != c.hi) {
			t.Errorf("%s: estimated %+v, want %v values over [%v, %v] (ranged %v)", c.name, got, c.ndv, c.lo, c.hi, c.ranged)
		}
		g := Aggregate(q, []string{"k"}, Count("n"))
		if got := estimate(t, g, misalignedCfg(), st); !near(got, min(c.ndv, r.rows(phys))) {
			t.Errorf("%s: aggregate by it: %v groups, want %v", c.name, got, c.ndv)
		}
	}
}

// TestEstimateGroupsHoldingAKey: a column tuple that holds a table's
// single-column primary key has no more distinct values than the key,
// however many of that table's other columns ride along; a column of
// another table still multiplies them.
func TestEstimateGroupsHoldingAKey(t *testing.T) {
	q := Join(Scan("orders", "o"), Scan("customer", "c"), Inner, []string{"o.custkey"}, []string{"c.custkey"})
	r := newRewriter(q, testSchema(), misalignedCfg(), Options{Stats: testStats(1000, 100, 4000)})
	j, _, _, err := r.rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	key := r.keyNDV(j, []string{"c.custkey"})
	if got := r.keyNDV(j, []string{"c.custkey", "c.name"}); !near(got, key) {
		t.Errorf("key and name: %v values, want the key's %v", got, key)
	}
	if got := r.keyNDV(j, []string{"c.name", "c.custkey", "o.total"}); got <= key {
		t.Errorf("key, name and an orders column: %v values, want more than the key's %v", got, key)
	}
}
