package partition_test

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pref/internal/bench"
	"pref/internal/partition"
	"pref/internal/table"
	"pref/internal/tpcds"
	"pref/internal/tpch"
	"pref/internal/value"
)

// rowAtATime is the reference partitioner: every row of every table, in
// row order, placed through Placer.Place and appended to its partitions,
// with PREF partners looked up in an index built here, serially, from the
// referenced table's partitions in ascending order.
func rowAtATime(t *testing.T, db *table.Database, cfg *partition.Config) *table.PartitionedDatabase {
	t.Helper()
	out, err := partition.NewStore(db.Schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	order, err := cfg.Order()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		pt := out.Tables[name]
		var lookup func(value.Tuple, []int) []int
		if ts := cfg.Scheme(name); ts.Method == partition.Pref {
			lookup = serialIndex(t, out.Tables[ts.RefTable], ts.Pred.ReferencedCols)
		}
		pl, err := partition.NewPlacer(cfg, pt.Meta, lookup)
		if err != nil {
			t.Fatal(err)
		}
		pt.OriginalRows = db.Tables[name].Len()
		for _, row := range db.Tables[name].Rows {
			parts, hasRef := pl.Place(row, &pt.Cursor)
			for i, p := range parts {
				pt.Parts[p].Append(row, i > 0, hasRef)
			}
		}
	}
	return out
}

// serialIndex maps each referenced key to the ascending partitions that
// hold it.
func serialIndex(t *testing.T, ref *table.Partitioned, cols []string) func(value.Tuple, []int) []int {
	idx, err := ref.Meta.ColIndexes(cols)
	if err != nil {
		t.Fatal(err)
	}
	at := map[value.Key][]int{}
	for p, part := range ref.Parts {
		data := part.Columns(ref.Meta.NumCols()).Cols
		for i := 0; i < part.Len(); i++ {
			k := value.MakeKeyAt(data, i, idx)
			if ps := at[k]; len(ps) == 0 || ps[len(ps)-1] != p {
				at[k] = append(ps, p)
			}
		}
	}
	return func(row value.Tuple, cols []int) []int { return at[value.MakeKey(row, cols)] }
}

// sameStore reports the first difference between two partitioned
// databases: a table's counts, cursor or flags, or any column of any
// partition, dup and hasRef included.
func sameStore(got, want *table.PartitionedDatabase) error {
	if len(got.Tables) != len(want.Tables) {
		return fmt.Errorf("%d tables, want %d", len(got.Tables), len(want.Tables))
	}
	for name, w := range want.Tables {
		g := got.Tables[name]
		if g == nil {
			return fmt.Errorf("table %s missing", name)
		}
		if g.OriginalRows != w.OriginalRows || g.Cursor != w.Cursor || g.Replicated != w.Replicated {
			return fmt.Errorf("table %s: rows/cursor/replicated %d/%d/%v, want %d/%d/%v",
				name, g.OriginalRows, g.Cursor, g.Replicated, w.OriginalRows, w.Cursor, w.Replicated)
		}
		width := w.Meta.NumCols()
		for p := range w.Parts {
			gc, wc := g.Parts[p].Columns(width).Cols, w.Parts[p].Columns(width).Cols
			for j := range wc {
				if !slices.Equal(gc[j], wc[j]) {
					return fmt.Errorf("table %s partition %d column %d differs (%d rows, want %d)", name, p, j, g.Parts[p].Len(), w.Parts[p].Len())
				}
			}
		}
	}
	return nil
}

// applyEquals checks partition.Apply against the row-at-a-time reference
// for one configuration, with one worker and with four.
func applyEquals(t *testing.T, label string, db *table.Database, cfg *partition.Config) {
	t.Helper()
	want := rowAtATime(t, db, cfg)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := partition.Apply(db, cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("%s, %d workers: %v", label, procs, err)
		}
		if err := sameStore(got, want); err != nil {
			t.Errorf("%s, %d workers: %v", label, procs, err)
		}
	}
}

// groupDB is the part of db a variant group's configuration covers, as
// bench.Materialize partitions it.
func groupDB(db *table.Database, cfg *partition.Config) *table.Database {
	var absent []string
	for _, name := range db.Schema.TableNames() {
		if cfg.Scheme(name) == nil {
			absent = append(absent, name)
		}
	}
	if len(absent) == 0 {
		return db
	}
	return db.Without(absent...)
}

func variantNames(vs map[string]*bench.Variant) []string {
	names := make([]string, 0, len(vs))
	for name := range vs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestApplyEqualsRowAtATime: the passes of partition.Apply — targets on
// parallel workers, the cursor's slots in row order, the copies scattered
// into exactly sized columns — build the store that placing one row at a
// time through Placer.Place builds, column for column, flag for flag, with
// the same final cursor. It covers every TPC-H and TPC-DS variant on 1, 4
// and 10 partitions, and two hand-made TPC-H configurations: PREF tables
// whose orphans go round-robin, and a RANGE seed.
func TestApplyEqualsRowAtATime(t *testing.T) {
	h := tpch.Generate(0.005, 42)
	ds := tpcds.Generate(0.2, 42)
	for _, n := range []int{1, 4, 10} {
		hv, err := bench.TPCHVariants(h, n)
		if err != nil {
			t.Fatal(err)
		}
		dv, err := bench.TPCDSVariants(ds, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range []struct {
			bench string
			db    *table.Database
			vs    map[string]*bench.Variant
		}{{"tpch", h.DB, hv}, {"tpcds", ds.DB, dv}} {
			for _, name := range variantNames(set.vs) {
				for gi, g := range set.vs[name].Groups {
					label := fmt.Sprintf("%s %s group %d, n=%d", set.bench, name, gi, n)
					applyEquals(t, label, groupDB(set.db, g.Config), g.Config)
				}
			}
		}
	}

	// Round-robin orphans: orders is round-robin, so customer (a third of
	// whom never order) and lineitem are PREF tables that are not
	// hash-equivalent, and their orphans take the cursor's slots.
	// lineitem's predicate, orderkey = custkey, leaves most of its rows
	// orphans, in every chunk, and copies each of the rest to every
	// partition holding an order of that customer.
	rr := partition.NewConfig(4)
	rr.Set(&partition.TableScheme{Table: "orders", Method: partition.RoundRobin})
	rr.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	rr.SetPref("lineitem", "orders", []string{"orderkey"}, []string{"custkey"})
	// Range: orders split on orderkey, lineitem following it.
	rg := partition.NewConfig(4)
	third := int64(h.DB.Tables["orders"].Len() / 3)
	rg.Set(&partition.TableScheme{Table: "orders", Method: partition.Range, Cols: []string{"orderkey"}, Bounds: []int64{third, 2 * third, 3 * third}})
	rg.SetPref("lineitem", "orders", []string{"orderkey"}, []string{"orderkey"})
	rg.SetReplicated("customer")
	for _, c := range []struct {
		label string
		cfg   *partition.Config
	}{{"round-robin orphans", rr}, {"range", rg}} {
		db := groupDB(h.DB, c.cfg)
		applyEquals(t, c.label, db, c.cfg)
	}
	pdb := rowAtATime(t, groupDB(h.DB, rr), rr)
	for _, name := range []string{"customer", "lineitem"} {
		if pt := pdb.Tables[name]; pt.Cursor == 0 || pt.StoredRows() <= pt.Cursor {
			t.Errorf("round-robin orphans: %s placed %d orphans round-robin of %d stored copies", name, pt.Cursor, pt.StoredRows())
		}
	}
}
