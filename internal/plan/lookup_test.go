package plan

import (
	"slices"
	"testing"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/value"
)

// lookupCfg hashes orders and lineitem and replicates customer and nation:
// a join of orders with customer runs where orders sits, and an aggregate by
// a customer column runs in two phases.
func lookupCfg() *partition.Config {
	cfg := partition.NewConfig(4)
	cfg.SetHash("orders", "orderkey")
	cfg.SetHash("lineitem", "linekey")
	cfg.SetReplicated("customer")
	cfg.SetReplicated("nation")
	return cfg
}

// loweredPartials returns the partial aggregates of the plan at n that run below a
// join, with the join above each.
func loweredPartials(n Node) map[*PartialAggNode]*JoinNode {
	out := map[*PartialAggNode]*JoinNode{}
	var walk func(Node)
	walk = func(n Node) {
		if j, ok := n.(*JoinNode); ok {
			for _, in := range []Node{j.Left, j.Right} {
				if p, ok := in.(*PartialAggNode); ok {
					out[p] = j
				}
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// TestPartialRunsBelowLookupJoin: with statistics, the partial of an
// aggregate by a replicated table's name column runs below the join that
// only names its groups, grouped by the join's key, and the exchange above
// the join ships the names and the states, not the keys. Without statistics,
// or where the rule does not hold — an argument reads the lookup, the lookup
// is joined off its key, its group-by column does not tell its rows apart —
// the partial stays above the join.
func TestPartialRunsBelowLookupJoin(t *testing.T) {
	s := testSchema()
	byName := func(arg ValExpr) Node {
		j := Join(Scan("orders", "o"), Scan("customer", "c"), Inner, []string{"o.custkey"}, []string{"c.custkey"})
		return Aggregate(j, []string{"c.name"}, Count("n"), Sum(arg, "revenue"))
	}
	projected := func() Node {
		j := Join(Scan("orders", "o"), Scan("customer", "c"), Inner, []string{"o.custkey"}, []string{"c.custkey"})
		double := F("double", value.Money, []string{"o.total"}, func(v []int64) int64 { return 2 * v[0] })
		p := Project(j, []string{"c.name", "v"}, []ValExpr{Col("c.name"), double})
		return Aggregate(p, []string{"c.name"}, Sum(Col("v"), "revenue"))
	}
	offKey := func() Node {
		j := Join(Scan("orders", "o"), Scan("nation", "n"), Inner, []string{"o.custkey"}, []string{"n.regionkey"})
		return Aggregate(j, []string{"n.nationkey"}, Sum(Col("o.total"), "revenue"))
	}
	st := testStats(2_000_000, 100, 8_000_000)
	shared := testStats(2_000_000, 100, 8_000_000)
	shared.Tables["customer"].Cols[1].NDV = 10 // ten names over a hundred customers
	for _, c := range []struct {
		name    string
		q       Node
		stats   *Stats
		groupBy []string // of the partial below the join; nil: none runs below one
	}{
		{"by name", byName(Col("o.total")), st, []string{"o.custkey"}},
		{"by name, unpriced", byName(Col("o.total")), nil, nil},
		{"through a projection", projected(), st, []string{"o.custkey"}},
		{"an argument reads the lookup", byName(Col("c.custkey")), st, nil},
		{"joined off the lookup's key", offKey(), st, nil},
		{"names shared by rows of the lookup", byName(Col("o.total")), shared, nil},
	} {
		rw, err := Rewrite(c.q, s, lookupCfg(), Options{Stats: c.stats})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		low := loweredPartials(rw.Root)
		if c.groupBy == nil {
			if len(low) > 0 {
				t.Errorf("%s: a partial runs below a join:\n%s", c.name, rw.Explain())
			}
			continue
		}
		if len(low) != 1 {
			t.Fatalf("%s: %d partials below a join, want 1:\n%s", c.name, len(low), rw.Explain())
		}
		for p := range low {
			if !slices.Equal(p.GroupBy, c.groupBy) {
				t.Errorf("%s: partial groups by %v, want %v", c.name, p.GroupBy, c.groupBy)
			}
		}
		fin, ok := rw.Root.(*FinalAggNode)
		if !ok {
			t.Fatalf("%s: root %s, want the final aggregate:\n%s", c.name, rw.Root, rw.Explain())
		}
		ships := rw.Schemas[fin.Child].Names()
		slices.Sort(ships)
		want := mergeReads(fin.GroupBy, fin.Aggs)
		slices.Sort(want)
		if !slices.Equal(ships, want) {
			t.Errorf("%s: %s ships %v, want the group-by and states %v", c.name, fin.Child, ships, want)
		}
	}
}

// TestLoweredExchangePricedAtItsWidth: the estimator prices the exchange
// above a partial moved below a lookup join at the columns it ships once
// pruned, the final aggregate's group-by and states, also where the
// aggregate groups by two columns of the lookup reached by one key (the
// partial then groups by one column fewer than the exchange ships).
func TestLoweredExchangePricedAtItsWidth(t *testing.T) {
	s := catalog.NewSchema("t")
	s.MustAddTable(catalog.MustTable("customer", []catalog.Column{{Name: "custkey", Kind: value.Int},
		{Name: "name", Kind: value.Str}, {Name: "segment", Kind: value.Str}}, "custkey"))
	s.MustAddTable(catalog.MustTable("orders", []catalog.Column{{Name: "orderkey", Kind: value.Int},
		{Name: "custkey", Kind: value.Int}, {Name: "total", Kind: value.Money}}, "orderkey"))
	cfg := partition.NewConfig(4)
	cfg.SetHash("orders", "orderkey")
	cfg.SetReplicated("customer")
	col := func(hi int64, ndv float64) ColStats { return ColStats{Min: 1, Max: hi, NDV: ndv} }
	opt := Options{Stats: &Stats{Tables: map[string]*TableStats{
		"customer": {Rows: 100, Cols: []ColStats{col(100, 100), col(100, 100), col(5, 5)}},
		"orders":   {Rows: 2_000_000, Cols: []ColStats{col(2_000_000, 2_000_000), col(100, 100), col(9999, 10_000)}},
	}}}
	j := Join(Scan("orders", "o"), Scan("customer", "c"), Inner, []string{"o.custkey"}, []string{"c.custkey"})
	q := Aggregate(j, []string{"c.name", "c.segment"}, Sum(Col("o.total"), "revenue"))
	rw, err := Rewrite(q, s, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if low := loweredPartials(rw.Root); len(low) != 1 {
		t.Fatalf("%d partials below a join, want 1:\n%s", len(low), rw.Explain())
	}
	ships := len(rw.Schemas[rw.Root.(*FinalAggNode).Child])

	// The same rewrite up to the move, to read its estimates.
	root := pushResiduals(q, s)
	r := newRewriter(root, s, cfg, opt)
	phys, prop, sch, err := r.rewrite(root)
	if err != nil {
		t.Fatal(err)
	}
	if r.out.Root, _, _, err = r.finalizeRoot(phys, prop, sch); err != nil {
		t.Fatal(err)
	}
	r.sinkJoins(&r.out.Root, true)
	r.lowerPartials(r.out.Root)
	fin := r.out.Root.(*FinalAggNode)
	in := fin.Child.Children()[0]
	if _, ok := in.(*JoinNode); !ok {
		t.Fatalf("the exchange's input is %s, want the lookup join", in)
	}
	got := (r.shipped(fin) - r.shipped(in)) / (r.rows(in) * 8 * r.copies(fin.Child))
	if got != float64(ships) {
		t.Errorf("the exchange is priced at %v columns a row, want the %d it ships", got, ships)
	}
}
