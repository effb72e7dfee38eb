package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/value"
)

// testSchema: customer(custkey, nationkey, name) / orders(orderkey,
// custkey, total) / lineitem(linekey, orderkey, qty) / nation(nationkey).
func testSchema() *catalog.Schema {
	s := catalog.NewSchema("t")
	s.MustAddTable(catalog.MustTable("nation",
		[]catalog.Column{{Name: "nationkey", Kind: value.Int}}, "nationkey"))
	s.MustAddTable(catalog.MustTable("customer",
		[]catalog.Column{{Name: "custkey", Kind: value.Int}, {Name: "nationkey", Kind: value.Int}, {Name: "name", Kind: value.Str}}, "custkey"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "custkey", Kind: value.Int}, {Name: "total", Kind: value.Money}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}, {Name: "qty", Kind: value.Int}}, "linekey"))
	return s
}

// testDB fills the schema deterministically: 20 customers (4 without
// orders), 50 orders, 150 lineitems, 5 nations. Orders reference customers
// 0..15; customer 16..19 are orderless (exercising outer/anti joins and
// PREF orphans).
func testDB(t testing.TB) *table.Database {
	t.Helper()
	db := table.NewDatabase(testSchema())
	for i := int64(0); i < 5; i++ {
		db.Tables["nation"].MustAppend(value.Tuple{i})
	}
	dict := db.Schema.Table("customer").Dict("name")
	for i := int64(0); i < 20; i++ {
		db.Tables["customer"].MustAppend(value.Tuple{i, i % 5, dict.Code(fmt.Sprintf("cust-%02d", i))})
	}
	for i := int64(0); i < 50; i++ {
		db.Tables["orders"].MustAppend(value.Tuple{i, i % 16, value.FromMoney(float64(10 + i))})
	}
	for i := int64(0); i < 150; i++ {
		db.Tables["lineitem"].MustAppend(value.Tuple{i, i % 50, i % 7})
	}
	return db
}

// configs under test; results must be identical across all of them.
func testConfigs(n int) map[string]*partition.Config {
	cfgs := map[string]*partition.Config{}

	ref := partition.NewConfig(1)
	ref.SetHash("customer", "custkey").SetHash("orders", "orderkey").
		SetHash("lineitem", "linekey").SetHash("nation", "nationkey")
	cfgs["reference-1node"] = ref

	allHash := partition.NewConfig(n)
	allHash.SetHash("customer", "custkey").SetHash("orders", "orderkey").
		SetHash("lineitem", "linekey").SetHash("nation", "nationkey")
	cfgs["all-hashed"] = allHash

	prefChain := partition.NewConfig(n)
	prefChain.SetHash("lineitem", "orderkey")
	prefChain.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	prefChain.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	prefChain.SetPref("nation", "customer", []string{"nationkey"}, []string{"nationkey"})
	cfgs["pref-chain"] = prefChain

	classical := partition.NewConfig(n)
	classical.SetHash("lineitem", "orderkey")
	classical.SetHash("orders", "orderkey")
	classical.SetReplicated("customer")
	classical.SetReplicated("nation")
	cfgs["classical"] = classical

	upChain := partition.NewConfig(n)
	upChain.SetHash("nation", "nationkey")
	upChain.SetPref("customer", "nation", []string{"nationkey"}, []string{"nationkey"})
	upChain.SetPref("orders", "customer", []string{"custkey"}, []string{"custkey"})
	upChain.SetPref("lineitem", "orders", []string{"orderkey"}, []string{"orderkey"})
	cfgs["ref-up-chain"] = upChain

	return cfgs
}

// runOn rewrites and executes a fresh copy of the logical plan builder on
// one config.
func runOn(t testing.TB, mk func() plan.Node, db *table.Database, cfg *partition.Config, opt plan.Options) *Result {
	t.Helper()
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := plan.Rewrite(mk(), db.Schema, cfg, opt)
	if err != nil {
		t.Fatalf("rewrite: %v\n%s", err, plan.Format(mk()))
	}
	res, err := ExecuteCtx(context.Background(), rw, pdb, ExecOptions{})
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, plan.Format(rw.Root))
	}
	res.SortRows()
	return res
}

// assertAllConfigsAgree executes the plan on every config and requires
// identical (sorted) results.
func assertAllConfigsAgree(t *testing.T, mk func() plan.Node, opt plan.Options) map[string]*Result {
	t.Helper()
	db := testDB(t)
	results := map[string]*Result{}
	var refRows []value.Tuple
	for name, cfg := range testConfigs(4) {
		res := runOn(t, mk, db, cfg, opt)
		results[name] = res
		if name == "reference-1node" {
			refRows = res.Rows
		}
	}
	for name, res := range results {
		if !reflect.DeepEqual(res.Rows, refRows) {
			t.Errorf("config %s: %d rows, reference %d rows\ngot:  %v\nwant: %v",
				name, len(res.Rows), len(refRows), trunc(res.Rows), trunc(refRows))
		}
	}
	return results
}

func trunc(rows []value.Tuple) []value.Tuple {
	if len(rows) > 12 {
		return rows[:12]
	}
	return rows
}

func TestScanFilterProject(t *testing.T) {
	mk := func() plan.Node {
		f := plan.Filter(plan.Scan("orders", "o"), plan.Lt(plan.Col("o.custkey"), plan.Lit(3)))
		return plan.ProjectCols(f, "o.orderkey", "o.custkey")
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	// custkey 0,1,2 ⇒ i%16 ∈ {0,1,2}: i ∈ {0,1,2,16,17,18,32,33,34,48,49}.
	if len(res["reference-1node"].Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(res["reference-1node"].Rows))
	}
}

func TestCoLocatedJoinCase2(t *testing.T) {
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("lineitem", "l"), plan.Scan("orders", "o"),
			plan.Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
		return plan.ProjectCols(j, "l.linekey", "o.orderkey", "o.custkey")
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	if got := len(res["reference-1node"].Rows); got != 150 {
		t.Fatalf("join rows = %d, want 150", got)
	}
	// Under the PREF chain the join is fully local: no repartitioning.
	if res["pref-chain"].Stats.Repartitions != 0 {
		t.Errorf("pref-chain should need no repartition, got %d", res["pref-chain"].Stats.Repartitions)
	}
	// All-hashed-on-pk needs at least one repartition.
	if res["all-hashed"].Stats.Repartitions == 0 {
		t.Error("all-hashed should need repartitioning")
	}
}

func TestCoLocatedJoinCase3(t *testing.T) {
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("orders", "o"), plan.Scan("customer", "c"),
			plan.Inner, []string{"o.custkey"}, []string{"c.custkey"})
		return plan.ProjectCols(j, "o.orderkey", "c.custkey", "c.name")
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	if got := len(res["reference-1node"].Rows); got != 50 {
		t.Fatalf("join rows = %d, want 50", got)
	}
	if res["pref-chain"].Stats.Repartitions != 0 {
		t.Error("o⋈c should be local under the pref chain (case 3)")
	}
	if res["ref-up-chain"].Stats.Repartitions != 0 {
		t.Error("o⋈c should be local under the up chain (case 2/3)")
	}
}

// The paper's Figure 3 query: SELECT SUM(o.total) FROM orders JOIN
// customer ON custkey GROUP BY c.name.
func TestPaperFigure3AggregationQuery(t *testing.T) {
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("orders", "o"), plan.Scan("customer", "c"),
			plan.Inner, []string{"o.custkey"}, []string{"c.custkey"})
		return plan.Aggregate(j, []string{"c.name"}, plan.Sum(plan.Col("o.total"), "revenue"))
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	if got := len(res["reference-1node"].Rows); got != 16 {
		t.Fatalf("groups = %d, want 16 customers with orders", got)
	}
	// The aggregation input is PREF partitioned with duplicates, so a
	// repartition on the group-by column is required (Figure 3's plan).
	if res["pref-chain"].Stats.Repartitions == 0 {
		t.Error("group-by on c.name must repartition under pref chain")
	}
}

func TestThreeWayJoinAggregate(t *testing.T) {
	mk := func() plan.Node {
		lo := plan.Join(plan.Scan("lineitem", "l"), plan.Scan("orders", "o"),
			plan.Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
		loc := plan.Join(lo, plan.Scan("customer", "c"),
			plan.Inner, []string{"o.custkey"}, []string{"c.custkey"})
		return plan.Aggregate(loc, []string{"c.custkey"},
			plan.Count("n"), plan.Sum(plan.Col("l.qty"), "qty"))
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	if res["pref-chain"].Stats.Repartitions > 1 {
		t.Errorf("pref-chain: only the final group-by should shuffle, got %d", res["pref-chain"].Stats.Repartitions)
	}
}

func TestGlobalAggregate(t *testing.T) {
	mk := func() plan.Node {
		return plan.Aggregate(plan.Scan("customer", "c"), nil,
			plan.Count("cnt"),
			plan.Min(plan.Col("c.custkey"), "lo"),
			plan.Max(plan.Col("c.custkey"), "hi"))
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	rows := res["reference-1node"].Rows
	if len(rows) != 1 || rows[0][0] != 20 || rows[0][1] != 0 || rows[0][2] != 19 {
		t.Fatalf("global agg = %v", rows)
	}
	// PREF-partitioned customer contains duplicates; the count must not
	// see them (dup-index elimination before the partial aggregation).
	if got := res["pref-chain"].Rows[0][0]; got != 20 {
		t.Fatalf("pref-chain count = %d, want 20", got)
	}
}

func TestAvgAggregate(t *testing.T) {
	mk := func() plan.Node {
		return plan.Aggregate(plan.Scan("orders", "o"), nil,
			plan.Avg(plan.Col("o.total"), "avg_total"))
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	got := value.ToFloat(res["reference-1node"].Rows[0][0])
	// totals are (10+i)*100 cents for i in 0..49 → avg = 3450 cents.
	if got != 3450 {
		t.Fatalf("avg = %v cents, want 3450", got)
	}
}

func TestSemiJoinBothPaths(t *testing.T) {
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("customer", "c"), plan.Scan("orders", "o"),
			plan.Semi, []string{"c.custkey"}, []string{"o.custkey"})
		return plan.Aggregate(j, nil, plan.Count("cnt"))
	}
	with := assertAllConfigsAgree(t, mk, plan.Options{})
	without := assertAllConfigsAgree(t, mk, plan.Options{DisableHasRefOpt: true})
	// 16 customers have orders.
	if with["reference-1node"].Rows[0][0] != 16 {
		t.Fatalf("semi count = %d, want 16", with["reference-1node"].Rows[0][0])
	}
	if without["pref-chain"].Rows[0][0] != 16 {
		t.Fatalf("unoptimized semi count = %d, want 16", without["pref-chain"].Rows[0][0])
	}
	// The optimized plan avoids all shuffles under the pref chain
	// (hasRef filter) and never touches the orders table; the
	// unoptimized semi join still executes the join (co-located here),
	// processing strictly more rows.
	if with["pref-chain"].Stats.Repartitions != 0 {
		t.Error("hasRef-optimized semi join should not repartition")
	}
	if without["pref-chain"].Stats.RowsProcessed <= with["pref-chain"].Stats.RowsProcessed {
		t.Errorf("unoptimized semi should process more rows: %d vs %d",
			without["pref-chain"].Stats.RowsProcessed, with["pref-chain"].Stats.RowsProcessed)
	}
}

func TestAntiJoinBothPaths(t *testing.T) {
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("customer", "c"), plan.Scan("orders", "o"),
			plan.Anti, []string{"c.custkey"}, []string{"o.custkey"})
		return plan.Aggregate(j, nil, plan.Count("cnt"))
	}
	with := assertAllConfigsAgree(t, mk, plan.Options{})
	without := assertAllConfigsAgree(t, mk, plan.Options{DisableHasRefOpt: true})
	// customers 16..19 have no orders.
	if with["reference-1node"].Rows[0][0] != 4 {
		t.Fatalf("anti count = %d, want 4", with["reference-1node"].Rows[0][0])
	}
	if without["pref-chain"].Rows[0][0] != 4 {
		t.Fatalf("unoptimized anti count = %d, want 4", without["pref-chain"].Rows[0][0])
	}
}

func TestAntiJoinWithFilteredRightRepartitions(t *testing.T) {
	// With a filtered right side the hasRef shortcut must NOT fire, and
	// PREF co-location is unsafe — correctness requires a shuffle.
	mk := func() plan.Node {
		right := plan.Filter(plan.Scan("orders", "o"), plan.Ge(plan.Col("o.total"), plan.MoneyLit(35)))
		j := plan.Join(plan.Scan("customer", "c"), right,
			plan.Anti, []string{"c.custkey"}, []string{"o.custkey"})
		return plan.Aggregate(j, nil, plan.Count("cnt"))
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	// orders with total ≥ $35: i ≥ 25 → custkeys (i%16) covered: 25..49
	// hits custkeys 9..15 and 0..8? i%16 for i in 25..49 = {9..15,0..15,0,1}
	// → all 16; so anti = 4 orderless customers.
	if res["reference-1node"].Rows[0][0] != 4 {
		t.Fatalf("filtered anti count = %d", res["reference-1node"].Rows[0][0])
	}
	if res["pref-chain"].Stats.Repartitions == 0 {
		t.Error("filtered anti join must repartition even under pref chain")
	}
}

func TestLeftOuterJoinQ13Style(t *testing.T) {
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("customer", "c"), plan.Scan("orders", "o"),
			plan.LeftOuter, []string{"c.custkey"}, []string{"o.custkey"})
		return plan.Aggregate(j, []string{"c.custkey"},
			plan.CountCol(plan.Col("o.orderkey"), "orders"))
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	rows := res["reference-1node"].Rows
	if len(rows) != 20 {
		t.Fatalf("groups = %d, want all 20 customers", len(rows))
	}
	// Orderless customers count 0 (COUNT skips the null orderkey).
	zero := 0
	for _, r := range rows {
		if r[1] == 0 {
			zero++
		}
	}
	if zero != 4 {
		t.Fatalf("customers with zero orders = %d, want 4", zero)
	}
}

// TestEquiJoinSkipsNullKeys: an equi-join never pairs NULL keys. Joining
// customer ⟕ orders to a second copy of itself on the orderkey pairs each of
// the 50 orders with itself only; the four orderless customers' orderkeys
// are the NULLs the outer join extends them with, and meet nothing (pairing
// them would add 4 × 4 rows). A two-column key takes the multi-column build,
// a one-column key the int64 table; the row reference and every config,
// the single node among them, agree.
func TestEquiJoinSkipsNullKeys(t *testing.T) {
	side := func(c, o string) plan.Node {
		return plan.Join(plan.Scan("customer", c), plan.Scan("orders", o),
			plan.LeftOuter, []string{c + ".custkey"}, []string{o + ".custkey"})
	}
	for _, keys := range [][2][]string{
		{{"o.orderkey"}, {"o2.orderkey"}},
		{{"o.orderkey", "o.custkey"}, {"o2.orderkey", "o2.custkey"}},
	} {
		mk := func() plan.Node {
			j := plan.Join(side("c", "o"), side("c2", "o2"), plan.Inner, keys[0], keys[1])
			return plan.Aggregate(j, nil, plan.Count("n"))
		}
		for name, res := range assertAllConfigsAgree(t, mk, plan.Options{}) {
			if got := res.Rows[0][0]; got != 50 {
				t.Errorf("%s, keys %v: %d pairs, want 50", name, keys[0], got)
			}
		}
		db := testDB(t)
		for name, cfg := range testConfigs(4) {
			pdb, err := partition.Apply(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rw, err := plan.Rewrite(mk(), db.Schema, cfg, plan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res := assertEnginesAgree(t, 0, rw, pdb, ExecOptions{}); res == nil || res.Rows[0][0] != 50 {
				t.Errorf("%s, keys %v: the engines agree on %v, want 50 pairs", name, keys[0], res)
			}
		}
	}
}

func TestThetaBroadcastJoin(t *testing.T) {
	mk := func() plan.Node {
		j := &plan.JoinNode{
			Left:  plan.Scan("customer", "c"),
			Right: plan.Scan("nation", "n"),
			Type:  plan.Inner,
			Residual: plan.Gt(plan.Col("c.nationkey"),
				plan.Col("n.nationkey")),
		}
		return plan.Aggregate(j, nil, plan.Count("cnt"))
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	// Σ_c (nationkey of c) since nations are 0..4: each customer with
	// nationkey k matches k nations. 20 customers, nationkey = i%5:
	// 4·(0+1+2+3+4) = 40.
	if res["reference-1node"].Rows[0][0] != 40 {
		t.Fatalf("theta join count = %d, want 40", res["reference-1node"].Rows[0][0])
	}
	if res["all-hashed"].Stats.Broadcasts == 0 {
		t.Error("theta join should broadcast")
	}
}

func TestDisableDupIndexStillCorrect(t *testing.T) {
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("orders", "o"), plan.Scan("customer", "c"),
			plan.Inner, []string{"o.custkey"}, []string{"c.custkey"})
		return plan.Aggregate(j, []string{"c.name"}, plan.Sum(plan.Col("o.total"), "revenue"))
	}
	assertAllConfigsAgree(t, mk, plan.Options{DisableDupIndex: true})
}

func TestProjectionDedupes(t *testing.T) {
	// A bare projection over a PREF table must not emit duplicates.
	mk := func() plan.Node {
		return plan.ProjectCols(plan.Scan("customer", "c"), "c.custkey")
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	if got := len(res["pref-chain"].Rows); got != 20 {
		t.Fatalf("projected rows = %d, want 20 (dups eliminated)", got)
	}
}

func TestNetworkSavingsOfPref(t *testing.T) {
	// The headline effect: the 3-way join ships far less data under the
	// PREF chain than under all-hashed-on-pk partitioning.
	mk := func() plan.Node {
		lo := plan.Join(plan.Scan("lineitem", "l"), plan.Scan("orders", "o"),
			plan.Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
		loc := plan.Join(lo, plan.Scan("customer", "c"),
			plan.Inner, []string{"o.custkey"}, []string{"c.custkey"})
		return plan.Aggregate(loc, nil, plan.Sum(plan.Col("l.qty"), "q"))
	}
	db := testDB(t)
	cfgs := testConfigs(4)
	pref := runOn(t, mk, db, cfgs["pref-chain"], plan.Options{})
	hashed := runOn(t, mk, db, cfgs["all-hashed"], plan.Options{})
	if !reflect.DeepEqual(pref.Rows, hashed.Rows) {
		t.Fatal("results differ")
	}
	if pref.Stats.BytesShipped >= hashed.Stats.BytesShipped {
		t.Fatalf("pref shipped %d bytes, hashed %d — expected pref < hashed",
			pref.Stats.BytesShipped, hashed.Stats.BytesShipped)
	}
}

func TestCostModelOrdersVariants(t *testing.T) {
	cm := DefaultCostModel()
	local := Stats{MaxNodeRows: 1000}
	remote := Stats{MaxNodeRows: 1000, BytesShipped: 50 << 20, Repartitions: 2}
	if cm.Simulate(local) >= cm.Simulate(remote) {
		t.Fatal("shipping 50MB must cost more than a local plan")
	}
}

func TestDuplicateAliasRejected(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(2)["all-hashed"]
	j := plan.Join(plan.Scan("orders", "o"), plan.Scan("orders", "o"),
		plan.Inner, []string{"o.orderkey"}, []string{"o.orderkey"})
	if _, err := plan.Rewrite(j, db.Schema, cfg, plan.Options{}); err == nil {
		t.Fatal("duplicate alias must be rejected")
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("orders", "o1"), plan.Scan("orders", "o2"),
			plan.Inner, []string{"o1.custkey"}, []string{"o2.custkey"})
		return plan.Aggregate(j, nil, plan.Count("pairs"))
	}
	res := assertAllConfigsAgree(t, mk, plan.Options{})
	// 16 custkeys: custkey k<2 has 4 orders (i%16: 50 orders → custkey 0,1
	// have 4; 2..15 have 3). pairs = 2·16 + 14·9 + ... compute: counts:
	// custkey 0:4,1:4,2..15:3 → Σ c² = 16+16+14·9 = 158.
	if res["reference-1node"].Rows[0][0] != 158 {
		t.Fatalf("self join pairs = %d, want 158", res["reference-1node"].Rows[0][0])
	}
}
