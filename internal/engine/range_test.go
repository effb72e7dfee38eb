package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pref/internal/catalog"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/trace"
	"pref/internal/value"
)

// day is the date d days after 1995-01-01.
func day(d int) int64 { return value.FromDate(1995, 1, 1) + int64(d) }

// dateDB fills orders(orderkey, custkey, odate, sdate) and
// lineitem(linekey, orderkey, qty): 80 orders whose odate runs over days
// 0..79 out of stored order and whose sdate runs over days 0..19, NULL on
// every fifth order, and three lineitems per order.
func dateDB(t testing.TB) *table.Database {
	t.Helper()
	s := catalog.NewSchema("d")
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "custkey", Kind: value.Int},
			{Name: "odate", Kind: value.Date}, {Name: "sdate", Kind: value.Date}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int},
			{Name: "qty", Kind: value.Int}}, "linekey"))
	db := table.NewDatabase(s)
	for i := 0; i < 80; i++ {
		sdate := day(i % 20)
		if i%5 == 4 {
			sdate = plan.Null
		}
		db.Tables["orders"].MustAppend(value.Tuple{int64(i), int64(i % 7), day(i * 37 % 80), sdate})
	}
	for i := int64(0); i < 240; i++ {
		db.Tables["lineitem"].MustAppend(value.Tuple{i, i / 3, i % 9})
	}
	return db
}

// dateConfigs places dateDB on 4 nodes: orders hashed, PREF-placed by its
// lineitems (an order whose lines sit on several nodes is stored on each), or
// replicated.
func dateConfigs() map[string]*partition.Config {
	hashed := partition.NewConfig(4)
	hashed.SetHash("orders", "orderkey").SetHash("lineitem", "linekey")
	pref := partition.NewConfig(4)
	pref.SetHash("lineitem", "linekey")
	pref.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	replicated := partition.NewConfig(4)
	replicated.SetReplicated("orders").SetHash("lineitem", "linekey")
	return map[string]*partition.Config{"hashed": hashed, "pref": pref, "replicated": replicated}
}

// dateQueries are queries over dateDB for the soak. Under the "pref" design
// every order is stored on each node that holds one of its three lineitems,
// so a lost node's orders partition is rebuilt from the others' copies.
func dateQueries() map[string]func() plan.Node {
	return map[string]func() plan.Node{
		// Both sides re-partition, so with statistics the second scan of
		// orders is read through its key index under a shipped filter.
		"keyed-self-join": func() plan.Node {
			o1 := plan.Filter(plan.Scan("orders", "o1"), plan.Eq(plan.Col("o1.custkey"), plan.Lit(3)))
			j := plan.Join(o1, plan.Scan("orders", "o2"), plan.Inner, []string{"o1.orderkey"}, []string{"o2.orderkey"})
			return plan.ProjectCols(j, "o2.orderkey", "o2.odate")
		},
		"range-agg": func() plan.Node {
			o := plan.Filter(plan.Scan("orders", "o"),
				plan.And(plan.Ge(plan.Col("o.odate"), plan.Lit(day(20))), plan.Lt(plan.Col("o.odate"), plan.Lit(day(50)))))
			return plan.Aggregate(o, []string{"o.custkey"}, plan.Count("n"))
		},
	}
}

// rangePlan returns a plan whose root is a filter of pred directly over a
// scan of orders (alias o) under cfg.
func rangePlan(t *testing.T, db *table.Database, cfg *partition.Config, pred plan.BoolExpr) *plan.Rewritten {
	t.Helper()
	rw0, err := plan.Rewrite(plan.Scan("orders", "o"), db.Schema, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := rw0.Root
	for len(n.Children()) > 0 {
		n = n.Children()[0]
	}
	scan := n.(*plan.ScanNode)
	f := plan.Filter(scan, pred)
	sch, prop := rw0.Schemas[scan], rw0.Props[scan]
	return &plan.Rewritten{Root: f, Schemas: map[plan.Node]plan.Schema{scan: sch, f: sch},
		Props: map[plan.Node]*plan.Prop{scan: prop, f: prop}, Catalog: db.Schema, Cfg: cfg}
}

// dateBound is a range a case's predicate puts on one orders column.
type dateBound struct {
	col    int
	lo, hi int64
}

// TestRangeScanReadsTheRange: a filter with literal bounds on a DATE column
// directly over a scan keeps exactly the stored rows its predicate holds for,
// in stored order, on the product and on the row reference alike. It reads
// each partition through a sorted index of the DATE column it bounds that
// holds the fewest rows in range there, the lowest on a tie: with F non-NULL
// rows in range, the scan's work there is one probe plus F, and the filter
// counts the rows outside the range as skipped. Where the
// read would not pay — a range that holds the whole partition — or does not
// apply — a pruned partition, a lost partition rebuilt by the recovery scan —
// the partition is read row by row, with the same rows kept. On a partition
// read through the index the filter evaluates only the conjuncts the range
// does not decide (a `<>` on the date column among them), and a whole-read
// partition beside it the whole predicate. The same filter
// rewritten as a query passes the static and trace checkers, the index-read
// law among them.
func TestRangeScanReadsTheRange(t *testing.T) {
	const odate, sdate = 2, 3
	cfgs := dateConfigs()
	for _, c := range []struct {
		name        string
		cfg         string
		pred        plan.BoolExpr
		bounds      []dateBound // the candidates' ranges, in column order
		prune, down []int
		reads       int // the partitions read through the index
	}{
		{name: "lower bound", cfg: "hashed", pred: plan.Ge(plan.Col("o.odate"), plan.Lit(day(60))),
			bounds: []dateBound{{odate, day(60), 1 << 62}}, reads: 4},
		{name: "upper bound", cfg: "hashed", pred: plan.Lt(plan.Col("o.odate"), plan.Lit(day(10))),
			bounds: []dateBound{{odate, plan.Null, day(9)}}, reads: 4},
		{name: "two-sided", cfg: "hashed",
			pred: plan.And(plan.Ge(plan.Col("o.odate"), plan.Lit(day(20))), plan.Le(plan.Col("o.odate"), plan.Lit(day(39))),
				plan.Ne(plan.Col("o.custkey"), plan.Lit(3))),
			bounds: []dateBound{{odate, day(20), day(39)}}, reads: 4},
		{name: "equality", cfg: "hashed", pred: plan.Eq(plan.Lit(day(7)), plan.Col("o.odate")),
			bounds: []dateBound{{odate, day(7), day(7)}}, reads: 4},
		{name: "empty range", cfg: "hashed",
			pred:   plan.And(plan.Gt(plan.Col("o.odate"), plan.Lit(day(30))), plan.Lt(plan.Col("o.odate"), plan.Lit(day(20)))),
			bounds: []dateBound{{odate, day(31), day(19)}}, reads: 4},
		{name: "whole partition", cfg: "hashed", pred: plan.Ge(plan.Col("o.odate"), plan.Lit(day(0))),
			bounds: []dateBound{{odate, day(0), 1 << 62}}},
		{name: "two candidates, the narrower is read", cfg: "hashed",
			pred:   plan.And(plan.Ge(plan.Col("o.odate"), plan.Lit(day(10))), plan.Lt(plan.Col("o.sdate"), plan.Lit(day(2)))),
			bounds: []dateBound{{odate, day(10), 1 << 62}, {sdate, plan.Null, day(1)}}, reads: 4},
		{name: "NULL dates", cfg: "hashed", pred: plan.Le(plan.Col("o.sdate"), plan.Lit(day(100))),
			bounds: []dateBound{{sdate, plan.Null, day(100)}}, reads: 4},
		{name: "PREF duplicates in range", cfg: "pref", pred: plan.Lt(plan.Col("o.odate"), plan.Lit(day(30))),
			bounds: []dateBound{{odate, plan.Null, day(29)}}, reads: 4},
		{name: "a pruned partition", cfg: "hashed", pred: plan.Lt(plan.Col("o.odate"), plan.Lit(day(30))),
			bounds: []dateBound{{odate, plan.Null, day(29)}}, prune: []int{0, 2}, reads: 2},
		{name: "a lost partition", cfg: "replicated", pred: plan.Lt(plan.Col("o.odate"), plan.Lit(day(30))),
			bounds: []dateBound{{odate, plan.Null, day(29)}}, down: []int{1}, reads: 3},
		// The range decides its conjuncts: the filter passes what the read
		// fetched through and evaluates only what the range leaves over.
		{name: "a decided range", cfg: "hashed",
			pred:   plan.And(plan.Ge(plan.Col("o.odate"), plan.Lit(day(20))), plan.Lt(plan.Col("o.odate"), plan.Lit(day(50)))),
			bounds: []dateBound{{odate, day(20), day(49)}}, reads: 4},
		{name: "a range and a conjunct on another column", cfg: "hashed",
			pred:   plan.And(plan.Lt(plan.Col("o.odate"), plan.Lit(day(40))), plan.Eq(plan.Col("o.custkey"), plan.Lit(3))),
			bounds: []dateBound{{odate, plan.Null, day(39)}}, reads: 4},
		{name: "!= on the date column is not decided", cfg: "hashed",
			pred:   plan.And(plan.Lt(plan.Col("o.odate"), plan.Lit(day(40))), plan.Ne(plan.Col("o.odate"), plan.Lit(day(25)))),
			bounds: []dateBound{{odate, plan.Null, day(39)}}, reads: 4},
		{name: "a NULL literal", cfg: "hashed", pred: plan.Ge(plan.Col("o.odate"), plan.Lit(plan.Null)),
			bounds: []dateBound{{odate, 1, 0}}, reads: 4},
		{name: "a lost partition beside index-read ones", cfg: "replicated",
			pred:   plan.And(plan.Lt(plan.Col("o.odate"), plan.Lit(day(30))), plan.Ne(plan.Col("o.custkey"), plan.Lit(2))),
			bounds: []dateBound{{odate, plan.Null, day(29)}}, down: []int{1}, reads: 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := dateDB(t)
			cfg := cfgs[c.cfg]
			pdb, err := partition.Apply(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rw := rangePlan(t, db, cfg, c.pred)
			scan := rw.Root.Children()[0].(*plan.ScanNode)
			scan.Prune = c.prune
			got, tr, err := runFilter(rw, pdb, c.down, nil, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			refGot, refTr, err := runFilter(rw, pdb, c.down, nil, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			requirePoolBalanced(t, c.name)
			if !reflect.DeepEqual(got, refGot) || tr.Totals != refTr.Totals {
				t.Fatalf("product and reference diverge:\nvec %v %+v\nrow %v %+v", got, tr.Totals, refGot, refTr.Totals)
			}
			// The same filter as a query, rewritten and executed with the
			// static and trace checkers on.
			q, err := plan.Rewrite(plan.Filter(plan.Scan("orders", "o"), c.pred), db.Schema, cfg, plan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ExecuteCtx(context.Background(), q, pdb, ExecOptions{Verify: true, Fault: &fault.Policy{DownNodes: c.down}}); err != nil {
				t.Fatalf("the query fails its checks: %v", err)
			}

			parts := pdb.Tables["orders"].Snapshot().Parts
			down := make([]bool, len(parts))
			for _, p := range c.down {
				down[p] = true
			}
			dst, err := buddyMap(len(parts), down)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := c.pred.Bind(rw.Schemas[scan])
			if err != nil {
				t.Fatal(err)
			}
			type cell struct{ probes, work, skipped int64 }
			want := make([]cell, len(parts))
			read, dups, narrower := 0, 0, 0
			keep := scanParts(scan)
			for p, part := range parts {
				rows := part.Rows()
				var kept []value.Tuple
				for _, r := range rows {
					if pred(r) {
						kept = append(kept, r)
					}
				}
				inRange, first := 0, 0
				for j, b := range c.bounds {
					n := 0
					for i, r := range rows {
						if v := r[b.col]; v != plan.Null && b.lo <= v && v <= b.hi {
							n++
							if part.Dup(i) {
								dups++
							}
						}
					}
					switch {
					case j == 0:
						inRange, first = n, n
					case n < first:
						narrower++
						inRange = min(inRange, n)
					}
				}
				switch {
				case keep != nil && !keep[p]:
					kept = nil
				case !down[p] && 1+inRange < len(rows):
					want[dst[p]].probes++
					want[dst[p]].work += int64(1 + inRange)
					want[dst[p]].skipped += int64(len(rows) - inRange)
					read++
				default:
					want[dst[p]].work += int64(len(rows))
				}
				for i, r := range got[p] {
					got[p][i] = r[:4] // without the PREF index columns
				}
				if fmt.Sprint(got[p]) != fmt.Sprint(kept) {
					t.Errorf("partition %d keeps %v, want %v", p, got[p], kept)
				}
			}
			if read != c.reads {
				t.Fatalf("fixture drift: %d partitions read through the index, want %d", read, c.reads)
			}
			if len(c.bounds) > 1 && narrower == 0 {
				t.Fatal("fixture drift: the lowest candidate is the narrower on every partition, so none reads another")
			}
			if c.cfg == "pref" && dups == 0 {
				t.Fatal("fixture drift: no PREF duplicate lies in the range")
			}
			filter, scanSpan := tr.Root.Children[0], tr.Root.Children[0].Children[0]
			skipped := map[int]int64{}
			for _, nm := range filter.Nodes {
				skipped[nm.Node] = nm.SkippedRows
			}
			for _, nm := range scanSpan.Nodes {
				w := want[nm.Node]
				if nm.IndexProbes != w.probes || nm.Work != w.work || skipped[nm.Node] != w.skipped {
					t.Errorf("node %d: scan probes=%d work=%d, filter skipped=%d; want probes=%d work=%d skipped=%d\n%s",
						nm.Node, nm.IndexProbes, nm.Work, skipped[nm.Node], w.probes, w.work, w.skipped,
						tr.Render(trace.RenderOptions{HideWall: true, Nodes: true}))
				}
			}
		})
	}
}
