package plan

import (
	"testing"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/value"
)

func isRuntimeFilter(n Node) bool { _, ok := n.(*RuntimeFilterNode); return ok }

// runtimeFilters rewrites q with opt and returns its runtime filters.
func runtimeFilters(t *testing.T, q Node, cfg *partition.Config, opt Options) (*Rewritten, []*RuntimeFilterNode) {
	t.Helper()
	rw, err := Rewrite(q, testSchema(), cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	var fs []*RuntimeFilterNode
	for _, n := range findNodes(rw.Root, isRuntimeFilter) {
		fs = append(fs, n.(*RuntimeFilterNode))
	}
	return rw, fs
}

// TestEstimateSemiAntiResidual: a semi or anti join with a residual counts
// a key match only in the share of rows the residual keeps, so an anti join
// whose right input holds every left key is not estimated empty. And an
// input estimated to hold no key counts as holding one, so it does not pass
// for a filter that drops every row of a small target.
func TestEstimateSemiAntiResidual(t *testing.T) {
	cfg := misalignedCfg()
	st := testStats(1000, 100, 4000)
	// Every order has lines; l.linekey <= 2000 keeps half of them.
	join := func(typ JoinType) *JoinNode {
		j := Join(Scan("orders", "o"), Scan("lineitem", "l"), typ, []string{"o.orderkey"}, []string{"l.orderkey"})
		j.Residual = Le(Col("l.linekey"), Lit(2000))
		return j
	}
	for _, c := range []struct {
		name string
		q    Node
		want float64
	}{
		{"semi", join(Semi), 500},
		{"anti", join(Anti), 500},
	} {
		if got := estimate(t, c.q, cfg, st); !near(got, c.want) {
			t.Errorf("%s with a residual: %v rows, want %v", c.name, got, c.want)
		}
	}

	q := Join(Filter(Scan("orders", "o"), Lt(Col("o.orderkey"), Lit(0))), Scan("nation", "n"),
		Inner, []string{"o.custkey"}, []string{"n.nationkey"})
	r := newRewriter(q, testSchema(), cfg, Options{Stats: st})
	phys, _, _, err := r.rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	j := findNodes(phys, func(n Node) bool { _, ok := n.(*JoinNode); return ok })[0].(*JoinNode)
	if got := r.rows(j.Left); got != 0 {
		t.Fatalf("fixture drift: the left input is estimated at %v rows, want 0", got)
	}
	if got := r.contain(j.Left, j.LeftCols, j.Right, j.RightCols); !near(got, 1.0/5) {
		t.Errorf("an empty source holds %v of nation's 5 keys, want one key's share", got)
	}
	if got := r.contain(j.Right, j.RightCols, j.Left, j.LeftCols); got != 1 {
		t.Errorf("an empty target's keys are held at %v, want 1", got)
	}
}

// TestLocalFilterOnColocatedJoin: with statistics, a selective input of a
// co-located join filters the other input in place — a local filter, just
// above its scan — when the estimator expects it to drop more rows than it
// keeps; without statistics no filter fires there.
func TestLocalFilterOnColocatedJoin(t *testing.T) {
	cfg := prefChainCfg(4)
	st := testStats(1000, 100, 4000)
	q := func(maxTotal int64) Node {
		return Join(Filter(Scan("orders", "o"), Le(Col("o.total"), Lit(maxTotal))), Scan("lineitem", "l"),
			Inner, []string{"o.orderkey"}, []string{"l.orderkey"})
	}
	rw, fs := runtimeFilters(t, q(99), cfg, Options{Stats: st})
	if len(fs) != 1 {
		t.Fatalf("want one runtime filter, got %d\n%s", len(fs), rw.Explain())
	}
	f := fs[0]
	if _, ok := f.Child.(*ScanNode); !ok || !f.Local || f.Col != "l.orderkey" || f.From.Source != LeftSide {
		t.Errorf("want a local filter on l.orderkey above the lineitem scan, built from the left input\n%s", rw.Explain())
	}
	if got, want := f.String(), "RuntimeFilter(l.orderkey IN keys(o.orderkey); local)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if rw, fs := runtimeFilters(t, q(99), cfg, Options{}); len(fs) != 0 {
		t.Errorf("no statistics, no local filter\n%s", rw.Explain())
	}
	// Keeping nine orders in ten, the filter would keep more lines than it
	// drops.
	if rw, fs := runtimeFilters(t, q(8999), cfg, Options{Stats: st}); len(fs) != 0 {
		t.Errorf("a filter that drops little must not fire\n%s", rw.Explain())
	}
}

// TestLocalFilterFromReplicatedSource: a replicated source holds every key
// on every node, so its filter is local even where an exchange lies between
// the filter and its join.
func TestLocalFilterFromReplicatedSource(t *testing.T) {
	cfg := misalignedCfg()
	oc := Join(Scan("orders", "o"), Scan("customer", "c"), Inner, []string{"o.custkey"}, []string{"c.custkey"})
	q := Join(Filter(Scan("nation", "n"), Eq(Col("n.nationkey"), Lit(3))), oc,
		Inner, []string{"n.nationkey"}, []string{"o.custkey"})
	onOrders := func(opt Options) (*Rewritten, *RuntimeFilterNode) {
		rw, fs := runtimeFilters(t, q, cfg, opt)
		for _, f := range fs {
			if f.Col == "o.custkey" {
				return rw, f
			}
		}
		t.Fatalf("want a filter on o.custkey\n%s", rw.Explain())
		return nil, nil
	}
	rw, f := onOrders(Options{Stats: testStats(1000, 900, 1)})
	if !f.Local || f.From.Source != LeftSide {
		t.Errorf("the filter from nation should be local\n%s", rw.Explain())
	}
	if len(findNodes(rw.Root, func(n Node) bool {
		rep, ok := n.(*RepartitionNode)
		return ok && rep.Child == Node(f)
	})) != 1 {
		t.Errorf("the filter should sit below the repartition of orders\n%s", rw.Explain())
	}
	if rw, f := onOrders(Options{}); f.Local {
		t.Errorf("without statistics the filter ships as before\n%s", rw.Explain())
	}
}

// TestLocalFilterPricesTheJoinsItPasses: a local filter that moves below a
// join also shrinks that join's input, which the join builds or probes row
// by row. In Q5's shape — a few orders joined to their lines, then a
// selective supplier input co-located with lineitem — the supplier's filter
// on l.suppkey keeps a fifth of the lines. The orders join's output is
// smaller than that fifth, so priced by the rows above it alone the filter
// would sit on the join; counting the lines the join reads, it lands on the
// lineitem scan.
func TestLocalFilterPricesTheJoinsItPasses(t *testing.T) {
	s := catalog.NewSchema("q5")
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "total", Kind: value.Money}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}, {Name: "suppkey", Kind: value.Int}}, "linekey"))
	s.MustAddTable(catalog.MustTable("supplier",
		[]catalog.Column{{Name: "suppkey", Kind: value.Int}, {Name: "region", Kind: value.Int}}, "suppkey"))
	cfg := partition.NewConfig(4)
	cfg.SetHash("lineitem", "orderkey")
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetPref("supplier", "lineitem", []string{"suppkey"}, []string{"suppkey"})
	col := func(lo, hi int64, ndv float64) ColStats { return ColStats{Min: lo, Max: hi, NDV: ndv} }
	st := &Stats{Tables: map[string]*TableStats{
		"orders":   {Rows: 1000, Cols: []ColStats{col(1, 1000, 1000), col(0, 9999, 1000)}},
		"lineitem": {Rows: 4000, Cols: []ColStats{col(1, 4000, 4000), col(1, 1000, 1000), col(1, 100, 100)}},
		"supplier": {Rows: 100, Cols: []ColStats{col(1, 100, 100), col(0, 4, 5)}},
	}}
	ol := Join(Filter(Scan("orders", "o"), Le(Col("o.total"), Lit(499))), Scan("lineitem", "l"),
		Inner, []string{"o.orderkey"}, []string{"l.orderkey"})
	q := Join(ol, Filter(Scan("supplier", "s"), Eq(Col("s.region"), Lit(0))),
		Inner, []string{"l.suppkey"}, []string{"s.suppkey"})
	rw, err := Rewrite(q, s, cfg, Options{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	var f *RuntimeFilterNode
	for _, n := range findNodes(rw.Root, isRuntimeFilter) {
		if n.(*RuntimeFilterNode).Col == "l.suppkey" {
			f = n.(*RuntimeFilterNode)
		}
	}
	if f == nil || !f.Local || f.From.Source != RightSide {
		t.Fatalf("want a local filter on l.suppkey built from the supplier input\n%s", rw.Explain())
	}
	below := f.Child
	for rf, ok := below.(*RuntimeFilterNode); ok; rf, ok = below.(*RuntimeFilterNode) {
		below = rf.Child
	}
	if scan, ok := below.(*ScanNode); !ok || scan.Table != "lineitem" {
		t.Errorf("the filter on l.suppkey sits above %s, want the lineitem scan\n%s", below, rw.Explain())
	}
}
