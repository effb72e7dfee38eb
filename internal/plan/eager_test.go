package plan

import (
	"strings"
	"testing"

	"pref/internal/partition"
)

// pkHashedCfg hashes every table of testSchema on its primary key, so no
// join of the customer/orders/lineitem chain is co-located.
func pkHashedCfg(n int) *partition.Config {
	cfg := partition.NewConfig(n)
	cfg.SetHash("customer", "custkey")
	cfg.SetHash("orders", "orderkey")
	cfg.SetHash("lineitem", "linekey")
	cfg.SetReplicated("nation")
	return cfg
}

// q3Shape is (c ⋈ o) ⋈ l grouped by lineitem's join key and an orders
// column, summing a lineitem column: TPC-H Q3's shape over testSchema.
func q3Shape(groupBy ...string) *AggregateNode {
	co := Join(Scan("customer", "c"), Scan("orders", "o"), Inner, []string{"c.custkey"}, []string{"o.custkey"})
	col := Join(co, Scan("lineitem", "l"), Inner, []string{"o.orderkey"}, []string{"l.orderkey"})
	return Aggregate(col, groupBy, Sum(Col("l.linekey"), "s"), Count("n"))
}

func eagerOf(t *testing.T, agg *AggregateNode, having BoolExpr) Node {
	t.Helper()
	r := &Rewriter{Schema: testSchema(), Cfg: pkHashedCfg(4)}
	return r.eagerForm(agg, having)
}

func TestEagerFormFiresOnKeyJoins(t *testing.T) {
	for _, c := range []struct {
		name string
		agg  *AggregateNode
		want string
	}{
		{"Q3: lineitem's join key grouped", q3Shape("l.orderkey", "o.total"), `Project(l.orderkey,o.total,s,n)
  INNERJoin(c.custkey=o.custkey)
    Scan(customer AS c)
    INNERJoin(o.orderkey=l.orderkey)
      Scan(orders AS o)
      Aggregate(by [l.orderkey], 2 aggs)
        Scan(lineitem AS l)
`},
		// Q18 groups by the partner's key: the join's equality covers it.
		{"Q18: the partner key grouped", q3Shape("c.name", "o.orderkey"), `Project(c.name,o.orderkey,s,n)
  INNERJoin(c.custkey=o.custkey)
    Scan(customer AS c)
    INNERJoin(o.orderkey=l.orderkey)
      Scan(orders AS o)
      Aggregate(by [l.orderkey], 2 aggs)
        Scan(lineitem AS l)
`},
		// The summed input may sit deep in the tree; its filter stays below
		// the aggregate.
		{"summed input joined first", Aggregate(
			Join(Join(Filter(Scan("lineitem", "l"), Gt(Col("l.linekey"), Lit(3))), Scan("orders", "o"), Inner,
				[]string{"l.orderkey"}, []string{"o.orderkey"}),
				Scan("customer", "c"), Inner, []string{"o.custkey"}, []string{"c.custkey"}),
			[]string{"o.orderkey", "c.name"}, Count("n")), `Project(o.orderkey,c.name,n)
  INNERJoin(o.custkey=c.custkey)
    INNERJoin(o.orderkey=l.orderkey)
      Scan(orders AS o)
      Aggregate(by [l.orderkey], 1 aggs)
        Filter(l.linekey>3)
          Scan(lineitem AS l)
    Scan(customer AS c)
`},
	} {
		e := eagerOf(t, c.agg, nil)
		if e == nil {
			t.Errorf("%s: no eager form", c.name)
			continue
		}
		if got := Format(e); got != c.want {
			t.Errorf("%s: eager form\n%swant\n%s", c.name, got, c.want)
		}
	}
}

func TestEagerFormRefusals(t *testing.T) {
	join := func(t JoinType) *AggregateNode {
		j := Join(Scan("orders", "o"), Scan("lineitem", "l"), t, []string{"o.orderkey"}, []string{"l.orderkey"})
		return Aggregate(Join(Scan("customer", "c"), j, Inner, []string{"c.custkey"}, []string{"o.custkey"}),
			[]string{"o.orderkey"}, Count("n"))
	}
	residual := func(res BoolExpr) *AggregateNode {
		agg := q3Shape("l.orderkey")
		agg.Child.(*JoinNode).Residual = res
		return agg
	}
	for _, c := range []struct {
		name string
		agg  *AggregateNode
	}{
		{"left outer join", join(LeftOuter)},
		{"semi join", join(Semi)},
		{"anti join", join(Anti)},
		// o.custkey is not orders' key: a lineitem row may meet many orders.
		{"non-key partner", Aggregate(Join(Scan("orders", "o"), Scan("lineitem", "l"), Inner,
			[]string{"o.custkey"}, []string{"l.orderkey"}), []string{"l.orderkey"}, Sum(Col("l.linekey"), "s"))},
		// orders' sums would need lineitem's key; lineitem is keyed by linekey.
		{"aggregate argument from the partner side", Aggregate(Join(Scan("orders", "o"), Scan("lineitem", "l"), Inner,
			[]string{"o.orderkey"}, []string{"l.orderkey"}), []string{"l.orderkey"}, Sum(Col("o.total"), "s"))},
		{"group-by missing the join key", q3Shape("o.total")},
		// After the rotation the residual sits on o ⋈ L', where c.name is out
		// of reach.
		{"residual that does not bind after rotation", residual(Cmp(Col("c.name"), NE, Col("l.orderkey")))},
		{"no join", Aggregate(Scan("lineitem", "l"), []string{"l.orderkey"}, Count("n"))},
	} {
		if e := eagerOf(t, c.agg, nil); e != nil {
			t.Errorf("%s: eager form built:\n%s", c.name, Format(e))
		}
	}
	// A residual over the partner and the summed input's grouped columns
	// moves with the join onto o ⋈ L'.
	if e := eagerOf(t, residual(Cmp(Col("o.total"), GT, Col("l.orderkey"))), nil); e == nil {
		t.Error("a residual that binds after the rotation refused")
	}
}

func TestEagerFormPlacesHaving(t *testing.T) {
	onSums := Gt(Col("s"), Lit(160))
	e := eagerOf(t, q3Shape("c.name", "o.orderkey"), onSums)
	if e == nil {
		t.Fatal("no eager form")
	}
	sums := findNodes(e, func(n Node) bool { _, ok := n.(*AggregateNode); return ok })
	if len(sums) != 1 {
		t.Fatalf("want one aggregate:\n%s", Format(e))
	}
	if f, ok := e.(*ProjectNode); !ok || len(findNodes(f, func(n Node) bool {
		x, ok := n.(*FilterNode)
		return ok && x.Child == sums[0]
	})) != 1 {
		t.Errorf("HAVING over the sums must sit directly on them:\n%s", Format(e))
	}

	// A HAVING that reads the partner side stays on top.
	onPartner := Gt(Col("c.name"), Lit(3))
	e = eagerOf(t, q3Shape("c.name", "o.orderkey"), onPartner)
	if f, ok := e.(*FilterNode); !ok || f.Pred != onPartner || !strings.HasPrefix(Format(f.Child), "Project(") {
		t.Errorf("HAVING over a partner column must stay above the projection:\n%s", Format(e))
	}
}

// sdChainCfg is SD's chain: customer seeds, orders rides it by custkey
// (hash-equivalent), and lineitem is PREF on orders by orderkey — duplicate
// free, but placed by an orders column the group-by need not name.
func sdChainCfg(n int) *partition.Config {
	cfg := partition.NewConfig(n)
	cfg.SetHash("customer", "custkey")
	cfg.SetPref("orders", "customer", []string{"custkey"}, []string{"custkey"})
	cfg.SetPref("lineitem", "orders", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetReplicated("nation")
	return cfg
}

// TestEagerFormChosenOnFewerExchanges holds the gate without statistics: the
// all-hashed design ships the summed lineitem (2 exchanges against 3); the
// PREF chain seeded at lineitem, which co-locates the lazy joins and the
// lazy aggregate, keeps the lazy form (a tie at 0); SD's chain sums lineitem
// in place (0 exchanges against the lazy aggregate's 1), marked with its
// orphans. All produce the aggregate's output names and order.
func TestEagerFormChosenOnFewerExchanges(t *testing.T) {
	isAggOver := func(n Node) bool {
		switch n := n.(type) {
		case *FinalAggNode:
			return len(n.GroupBy) == 1
		case *AggregateNode:
			return len(n.GroupBy) == 1
		}
		return false
	}
	for _, c := range []struct {
		name      string
		cfg       *partition.Config
		eager     bool
		exchanges int
	}{
		{"all hashed", pkHashedCfg(4), true, 2},
		{"PREF chain", prefChainCfg(4), false, 0},
		{"SD chain", sdChainCfg(4), true, 0},
	} {
		rw, err := Rewrite(Filter(q3Shape("c.name", "o.orderkey"), Gt(Col("s"), Lit(1))), testSchema(), c.cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := countNodes(rw.Root, isAggOver) == 1; got != c.eager {
			t.Errorf("%s: eager form kept = %v, want %v:\n%s", c.name, got, c.eager, rw.Explain())
		}
		if got := exchanges(rw.Root); got != c.exchanges {
			t.Errorf("%s: %d exchanges, want %d:\n%s", c.name, got, c.exchanges, rw.Explain())
		}
		inPlace := countNodes(rw.Root, func(n Node) bool { return rw.Props[n].Orphans == "l" }) > 0
		if want := c.eager && c.exchanges == 0; inPlace != want {
			t.Errorf("%s: lineitem summed in place = %v, want %v:\n%s", c.name, inPlace, want, rw.Explain())
		}
		if got := strings.Join(rw.Schema(rw.Root).Names(), ","); got != "c.name,o.orderkey,s,n" {
			t.Errorf("%s: output %s", c.name, got)
		}
		for n := range rw.Schemas {
			if rw.Props[n] == nil {
				t.Errorf("%s: %s has a schema but no properties", c.name, n)
			}
		}
	}
}
