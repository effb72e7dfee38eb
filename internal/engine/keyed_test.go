package engine

import (
	"fmt"
	"reflect"
	"testing"

	"pref/internal/batch"
	"pref/internal/bulkload"
	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/trace"
	"pref/internal/value"
)

// filterPlan returns a plan whose root is a local runtime filter on column
// col of a scan of tbl (alias alias) under cfg. Its join is a stand-in the
// plan never evaluates: runFilter hands the filter its source keys.
func filterPlan(t *testing.T, db *table.Database, cfg *partition.Config, tbl, alias, col string) (*plan.Rewritten, *plan.RuntimeFilterNode) {
	t.Helper()
	rw0, err := plan.Rewrite(plan.Scan(tbl, alias), db.Schema, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := rw0.Root
	for len(n.Children()) > 0 {
		n = n.Children()[0]
	}
	scan := n.(*plan.ScanNode)
	join := &plan.JoinNode{Left: plan.Scan(tbl, "src"), Type: plan.Semi,
		LeftCols: []string{"src.key"}, RightCols: []string{col}, Source: plan.LeftSide}
	f := &plan.RuntimeFilterNode{Child: scan, Col: col, From: join, Local: true}
	sch, prop := rw0.Schemas[scan], rw0.Props[scan]
	return &plan.Rewritten{Root: f, Schemas: map[plan.Node]plan.Schema{scan: sch, f: sch},
		Props: map[plan.Node]*plan.Prop{scan: prop, f: prop}, Catalog: db.Schema, Cfg: cfg}, f
}

// runFilter evaluates rw, a filter stack over a scan (filterPlan, rangePlan),
// over pdb, on the product or on the row reference, with keys[p] as its
// runtime filter's source partition p's keys and the nodes down lost, and returns
// each partition's output rows and the trace of the evaluation. during, if
// set, runs after the evaluation pinned its snapshot and before the filter
// runs. The executor is built by hand: filterPlan's stand-in join would fail
// the static checker ExecuteCtx runs under PREF_VERIFY.
func runFilter(rw *plan.Rewritten, pdb *table.PartitionedDatabase, down []int,
	keys [][]int64, ref bool, during func()) ([][]value.Tuple, *trace.Trace, error) {
	ex := newTestExecutor(pdb.N)
	defer ex.cancel()
	ex.rw, ex.pdb, ex.snap, ex.tb = rw, pdb, pdb.Snapshot(), trace.NewBuilder(pdb.N, 0)
	ex.down = make([]bool, pdb.N)
	for _, p := range down {
		ex.down[p] = true
	}
	var err error
	if ex.execDst, err = buddyMap(pdb.N, ex.down); err != nil {
		return nil, nil, err
	}
	if during != nil {
		during()
	}
	for n := rw.Root; len(n.Children()) == 1; n = n.Children()[0] {
		if f, ok := n.(*plan.RuntimeFilterNode); ok {
			ex.filters = map[*plan.JoinNode][][]int64{f.From: keys}
		}
	}
	var parts [][]value.Tuple
	if ref {
		parts, err = ex.refEval(rw.Root)
	} else {
		var out vparts
		out, err = ex.evalVec(rw.Root)
		for _, bs := range out {
			parts = append(parts, batch.AppendRows(nil, bs))
		}
		ex.owed.release()
	}
	return parts, ex.tb.Build(rw), err
}

// keyedCase is one read of a runtime filter over a scan: the table, filter
// column and source keys, and what the scan must do on each partition.
type keyedCase struct {
	name            string
	cfg             *partition.Config
	tbl, alias, col string
	keys            func(part *table.Partition, c int) []int64
	prune, down     []int
	indexed         bool                // whether col carries a key index
	fk              *catalog.ForeignKey // a foreign key to declare, if any
	reads           int                 // the partitions read through the index
	fewerKeys       bool                // every partition has fewer keys than rows
	shipped         bool                // a shipped filter: every partition probes the union
}

// everyThird keeps the keys of every third stored row of a partition.
func everyThird(part *table.Partition, c int) []int64 {
	var keys []int64
	for i := 0; i < part.Len(); i += 3 {
		keys = append(keys, part.Row(i)[c])
	}
	return keys
}

// ordersCustomer declares orders.custkey a foreign key; lineitemPair declares
// a compound foreign key whose second column, lineitem.orderkey, leads no key.
var (
	ordersCustomer = &catalog.ForeignKey{Name: "fk_orders_customer", FromTable: "orders",
		FromCols: []string{"custkey"}, ToTable: "customer", ToCols: []string{"custkey"}, ToIsUnique: true}
	lineitemPair = &catalog.ForeignKey{Name: "fk_lineitem_pair", FromTable: "lineitem",
		FromCols: []string{"qty", "orderkey"}, ToTable: "orders", ToCols: []string{"custkey", "orderkey"}}
)

// firstRow keeps the key of a partition's first stored row.
func firstRow(part *table.Partition, c int) []int64 {
	if part.Len() == 0 {
		return nil
	}
	return []int64{part.Row(0)[c]}
}

// TestKeyedScanReadsExactKeys: a local filter keeps, on each partition, exactly
// the stored rows whose key is among that source partition's keys, and a
// shipped one those whose key is among any source partition's keys, in
// stored order, on the product and on the row reference alike; a shipped one
// meters each source partition's encoded key set once per other node. Over a
// scan of a
// column with a key index — one that leads the primary key or is any column
// of a declared foreign key — it reads the partition through the key index:
// the scan's work there is the filter's distinct keys plus the rows they
// fetch, and its cell counts the keys as probes. Where the rule does not
// apply — a column in no key, a filter whose keys and the rows they
// name are at least as many as the partition's rows (as many keys as rows, or
// fewer keys that name most of the rows), a pruned partition, a lost
// partition rebuilt by the recovery scan — the partition is read row by row,
// with the same rows kept.
func TestKeyedScanReadsExactKeys(t *testing.T) {
	cfgs := testConfigs(4)
	for _, c := range []keyedCase{
		{name: "primary key", cfg: cfgs["all-hashed"], tbl: "orders", alias: "o", col: "o.orderkey",
			keys: everyThird, indexed: true, reads: 4},
		{name: "foreign key", cfg: cfgs["all-hashed"], tbl: "orders", alias: "o", col: "o.custkey",
			keys: firstRow, indexed: true, fk: ordersCustomer, reads: 4},
		{name: "second column of a compound foreign key", cfg: cfgs["all-hashed"], tbl: "lineitem", alias: "l", col: "l.orderkey",
			keys: firstRow, indexed: true, fk: lineitemPair, reads: 4},
		{name: "keys that name most rows", cfg: cfgs["all-hashed"], tbl: "orders", alias: "o", col: "o.custkey",
			keys: everyThird, indexed: true, fk: ordersCustomer, fewerKeys: true},
		{name: "a column that leads no key", cfg: cfgs["all-hashed"], tbl: "orders", alias: "o", col: "o.custkey",
			keys: everyThird},
		{name: "as many keys as rows", cfg: cfgs["all-hashed"], tbl: "orders", alias: "o", col: "o.orderkey",
			keys: func(part *table.Partition, c int) []int64 {
				keys := []int64{1000, 1001}
				for i := 0; i < part.Len(); i++ {
					keys = append(keys, part.Row(i)[c])
				}
				return keys
			}, indexed: true},
		{name: "a pruned partition", cfg: cfgs["all-hashed"], tbl: "orders", alias: "o", col: "o.orderkey",
			keys: everyThird, prune: []int{0, 2}, indexed: true, reads: 2},
		{name: "a lost partition", cfg: cfgs["classical"], tbl: "customer", alias: "c", col: "c.custkey",
			keys: everyThird, down: []int{1}, indexed: true, reads: 3},
		{name: "shipped", cfg: cfgs["all-hashed"], tbl: "orders", alias: "o", col: "o.orderkey",
			keys: firstRow, indexed: true, shipped: true, reads: 4},
		{name: "a shipped union that names most rows", cfg: cfgs["all-hashed"], tbl: "orders", alias: "o", col: "o.orderkey",
			keys: everyThird, indexed: true, shipped: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := testDB(t)
			if c.fk != nil {
				db.Schema.MustAddFK(*c.fk)
			}
			pdb, err := partition.Apply(db, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rw, f := filterPlan(t, db, c.cfg, c.tbl, c.alias, c.col)
			f.Child.(*plan.ScanNode).Prune = c.prune
			f.Local = !c.shipped
			pt := pdb.Tables[c.tbl]
			col := pt.Meta.ColIndex(c.col[len(c.alias)+1:])
			parts := pt.Snapshot().Parts
			keys := make([][]int64, len(parts))
			for p, part := range parts {
				keys[p] = c.keys(part, col)
			}
			got, tr, err := runFilter(rw, pdb, c.down, keys, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			refGot, refTr, err := runFilter(rw, pdb, c.down, keys, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			requirePoolBalanced(t, c.name)
			if !reflect.DeepEqual(got, refGot) || tr.Totals != refTr.Totals {
				t.Fatalf("product and reference diverge:\nvec %v %+v\nrow %v %+v", got, tr.Totals, refGot, refTr.Totals)
			}

			down := make([]bool, len(parts))
			for _, p := range c.down {
				down[p] = true
			}
			dst, err := buddyMap(len(parts), down)
			if err != nil {
				t.Fatal(err)
			}
			type cell struct{ probes, work int64 }
			want := make([]cell, len(parts))
			read := 0
			union, bytes := map[int64]bool{}, 0
			for _, ks := range keys {
				for _, k := range ks {
					union[k] = true
				}
				bytes += len(batch.EncodeKeySet(ks)) * (len(parts) - 1)
			}
			if shipped := tr.Root.Children[0].Totals.BytesShipped; c.shipped && shipped != int64(bytes) {
				t.Errorf("the filter shipped %d B, want its %d B of encoded key sets", shipped, bytes)
			}
			for p, part := range parts {
				set := union
				if !c.shipped {
					set = map[int64]bool{}
					for _, k := range keys[p] {
						set[k] = true
					}
				}
				var kept []value.Tuple
				for _, r := range part.Rows() {
					if set[r[col]] {
						kept = append(kept, r)
					}
				}
				if c.fewerKeys && len(set) >= part.Len() {
					t.Fatalf("fixture drift: partition %d has %d keys for %d rows", p, len(set), part.Len())
				}
				if c.prune != nil && !scanParts(f.Child.(*plan.ScanNode))[p] {
					kept = nil
				} else if c.indexed && !down[p] && len(set)+len(kept) < part.Len() {
					want[dst[p]].probes += int64(len(set))
					want[dst[p]].work += int64(len(set) + len(kept))
					read++
				} else {
					want[dst[p]].work += int64(part.Len())
				}
				width := pt.Meta.NumCols()
				for i, r := range got[p] {
					got[p][i] = r[:width]
				}
				if fmt.Sprint(got[p]) != fmt.Sprint(kept) {
					t.Errorf("partition %d keeps %v, want %v", p, got[p], kept)
				}
			}
			if read != c.reads {
				t.Fatalf("fixture drift: %d partitions read through the index, want %d", read, c.reads)
			}
			scanSpan := tr.Root.Children[0].Children[0]
			for _, nm := range scanSpan.Nodes {
				if w := want[nm.Node]; nm.IndexProbes != w.probes || nm.Work != w.work {
					t.Errorf("node %d: scan probes=%d work=%d, want probes=%d work=%d\n%s",
						nm.Node, nm.IndexProbes, nm.Work, w.probes, w.work, tr.Render(trace.RenderOptions{HideWall: true, Nodes: true}))
				}
			}
		})
	}
}

// TestKeyedScanReadsItsPinnedVersion: a query pinned to an epoch before a
// write reads that epoch through the index of the partitions it pinned, which
// the write does not touch, and the next query reads the written rows through
// an index of the new partition — a key index under a local filter, a date
// index under a date filter. Run twice on one snapshot, first with every
// index cold and then with each warm, a query has the same Stats.
func TestKeyedScanReadsItsPinnedVersion(t *testing.T) {
	for _, c := range []struct {
		name   string
		db     func(testing.TB) *table.Database
		cfg    *partition.Config
		plan   func(*table.Database, *partition.Config) *plan.Rewritten
		col    int                       // the orders column read through its index
		insert func(k int64) value.Tuple // an orders row the filter keeps
	}{
		{name: "key index", db: testDB, cfg: testConfigs(4)["all-hashed"],
			plan: func(db *table.Database, cfg *partition.Config) *plan.Rewritten {
				rw, _ := filterPlan(t, db, cfg, "orders", "o", "o.orderkey")
				return rw
			}, col: 0,
			insert: func(k int64) value.Tuple { return value.Tuple{k, 1, value.FromMoney(1)} }},
		{name: "date index", db: dateDB, cfg: dateConfigs()["hashed"],
			plan: func(db *table.Database, cfg *partition.Config) *plan.Rewritten {
				return rangePlan(t, db, cfg, plan.Ge(plan.Col("o.odate"), plan.Lit(day(70))))
			}, col: 2,
			insert: func(k int64) value.Tuple { return value.Tuple{k, 1, day(75), day(1)} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := c.db(t)
			pdb, err := partition.Apply(db, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rw := c.plan(db, c.cfg)
			keysOf := func() [][]int64 {
				keys := make([][]int64, pdb.N)
				for p := range keys {
					keys[p] = []int64{1, 2, 3, 100, 101, 102, 103}
				}
				return keys
			}
			coldRows, cold, err := runFilter(rw, pdb, nil, keysOf(), false, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, warm, err := runFilter(rw, pdb, nil, keysOf(), false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Totals != warm.Totals || cold.Totals.RowsProcessed == 0 {
				t.Fatalf("cold and warm index runs differ:\ncold %+v\nwarm %+v", cold.Totals, warm.Totals)
			}
			if cold.Root.Children[0].Children[0].Totals.IndexProbes == 0 {
				t.Fatal("fixture drift: the scan read through no index")
			}
			// cached reports whether every partition of v holds its index.
			cached := func(v *table.Version) bool {
				for _, part := range v.Parts {
					built := false
					part.KeyIndex(c.col, func([]int64) any { built = true; return nil })
					if built {
						return false
					}
				}
				return true
			}

			old := pdb.Tables["orders"].Snapshot()
			l := bulkload.NewLoader(pdb, c.cfg)
			pinnedRows, pinned, err := runFilter(rw, pdb, nil, keysOf(), false, func() {
				ops := make([]bulkload.Op, 0, 4)
				for k := int64(100); k < 104; k++ {
					ops = append(ops, bulkload.Insert("orders", c.insert(k)))
				}
				if _, err := l.Apply(ops...); err != nil {
					t.Error(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if pinned.Totals != warm.Totals || !reflect.DeepEqual(pinnedRows, coldRows) {
				t.Fatalf("the pinned query saw the write: %+v, want %+v", pinned.Totals, warm.Totals)
			}
			if !cached(old) {
				t.Fatal("the pinned version's partitions lost their indexes to the write")
			}
			after, _, err := runFilter(rw, pdb, nil, keysOf(), false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rowCount(after), rowCount(coldRows)+4; got != want {
				t.Fatalf("after the write the filter keeps %d rows, want %d", got, want)
			}
			if v := pdb.Tables["orders"].Snapshot(); v == old || !cached(v) {
				t.Fatal("the written version was not read through indexes of its own")
			}
			requirePoolBalanced(t, "pinned version")
		})
	}
}

func rowCount(parts [][]value.Tuple) int {
	n := 0
	for _, rows := range parts {
		n += len(rows)
	}
	return n
}
