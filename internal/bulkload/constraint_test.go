package bulkload

import (
	"errors"
	"fmt"
	"testing"

	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/partition"
	"pref/internal/table"
	"pref/internal/value"
)

// gapStore is an empty store of orders (orderkey, odate) and lineitem
// (linekey, orderkey, sdate) whose schema declares that every line ships
// 1–10 days after its order, which makes both dates NOT NULL. Orders are PREF-placed on
// lineitem, as SD places them, so lines load first.
func gapStore(t *testing.T) (*table.PartitionedDatabase, *partition.Config) {
	t.Helper()
	s := catalog.NewSchema("g")
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}, {Name: "sdate", Kind: value.Date}}, "linekey"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "odate", Kind: value.Date}}, "orderkey"))
	s.MustAddFK(catalog.ForeignKey{Name: "fk_l_o", FromTable: "lineitem", FromCols: []string{"orderkey"},
		ToTable: "orders", ToCols: []string{"orderkey"}, ToIsUnique: true,
		Gaps: []catalog.DateGap{{ChildDate: "sdate", ParentDate: "odate", Min: 1, Max: 10}}})
	cfg := partition.NewConfig(3)
	cfg.SetHash("lineitem", "linekey")
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	pdb, err := partition.NewStore(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pdb, cfg
}

// headOf is what a refused write must leave as it was: the epoch and every
// table's stored copies, logical rows and first partition's contents.
func headOf(pdb *table.PartitionedDatabase) [][]any {
	out := [][]any{{pdb.Epoch()}}
	for _, name := range []string{"lineitem", "orders"} {
		pt := pdb.Tables[name]
		out = append(out, []any{pt.StoredRows(), pt.OriginalRows, pt.Parts[0].Rows()})
	}
	return out
}

// TestLoaderKeepsDeclaredConstraints: the loader refuses, with a typed
// error that unwraps to ErrConstraint, every write that would break the
// schema's declared constraints, before it logs an intent, so the head,
// the epoch and the intent log stay as they were; a write that keeps them
// commits, and the store keeps every gap. Lines load before their orders here, so
// their foreign key is checked from the orders' side, by the gap.
func TestLoaderKeepsDeclaredConstraints(t *testing.T) {
	pdb, cfg := gapStore(t)
	l := NewLoader(pdb, cfg)
	lines := []value.Tuple{{0, 1, 105}, {1, 1, 110}, {2, 2, 201}}
	for _, r := range lines {
		if err := l.Insert("lineitem", r); err != nil {
			t.Fatalf("a line before any order is stored: %v", err)
		}
	}
	for _, c := range []struct {
		name       string
		op         Op
		constraint string
	}{
		{"an order its stored lines ship too late after", Insert("orders", value.Tuple{1, 99}), "fk_l_o"},
		{"an order its stored lines ship before", Insert("orders", value.Tuple{2, 201}), "fk_l_o"},
		{"a NULL order date", Insert("orders", value.Tuple{3, value.Null}), "fk_l_o"},
	} {
		t.Run(c.name, func(t *testing.T) { refused(t, l, c.op, c.constraint) })
	}
	if _, err := l.Apply(Insert("orders", value.Tuple{1, 100}), Insert("orders", value.Tuple{2, 195})); err != nil {
		t.Fatalf("orders that keep the gap: %v", err)
	}
	for _, c := range []struct {
		name       string
		op         Op
		constraint string
	}{
		{"a line shipped on its order's day", Insert("lineitem", value.Tuple{3, 1, 100}), "fk_l_o"},
		{"a line shipped 11 days after", Insert("lineitem", value.Tuple{3, 2, 206}), "fk_l_o"},
		{"a line naming no stored order", Insert("lineitem", value.Tuple{3, 9, 120}), "fk_l_o"},
		{"a NULL ship date", Insert("lineitem", value.Tuple{3, 1, value.Null}), "fk_l_o"},
		{"an update of a ship date", Update("lineitem", []string{"linekey"}, value.Tuple{0}, "sdate", 104), "fk_l_o"},
		{"an update of an order date", Update("orders", []string{"orderkey"}, value.Tuple{1}, "odate", 101), "fk_l_o"},
	} {
		t.Run(c.name, func(t *testing.T) { refused(t, l, c.op, c.constraint) })
	}
	if _, err := l.Apply(Insert("lineitem", value.Tuple{3, 2, 196}), Insert("lineitem", value.Tuple{4, 2, 205})); err != nil {
		t.Fatalf("lines that keep the gap: %v", err)
	}
	// Orders are not copied to where later lines land (the insert-order
	// slack VerifyStore's write-partner rule reports), but every gap holds.
	if vs := check.ViolationsOf(check.VerifyStore(pdb, cfg)); vs.HasRule(check.RuleWriteGap) {
		t.Fatal(vs)
	}
}

// TestLoaderFindsAppendedParents: a line's order is looked up through the
// index the orders partition already had and the rows appended since it was
// built, so an order stored after the index is found, and its gap kept.
func TestLoaderFindsAppendedParents(t *testing.T) {
	pdb, cfg := gapStore(t)
	l := NewLoader(pdb, cfg)
	var orders []Op
	for k := int64(100); k < 148; k++ {
		orders = append(orders, Insert("orders", value.Tuple{k, 1000}))
	}
	for _, ops := range [][]Op{
		orders,
		{Insert("lineitem", value.Tuple{0, 100, 1005})}, // indexes every orders partition
		{Insert("orders", value.Tuple{200, 2000})},
	} {
		if _, err := l.Apply(ops...); err != nil {
			t.Fatal(err)
		}
	}
	appended := 0
	for _, part := range pdb.Tables["orders"].Parts {
		if _, rows := part.PrefixKeyIndex(0, func(c []int64) any { return nil }); rows < part.Len() {
			appended++
		}
	}
	if appended != 1 {
		t.Fatalf("%d orders partitions read an appended row past their index, want 1", appended)
	}
	if err := l.Insert("lineitem", value.Tuple{1, 200, 2005}); err != nil {
		t.Fatalf("a line of the appended order: %v", err)
	}
	refused(t, l, Insert("lineitem", value.Tuple{2, 200, 2011}), "fk_l_o")
}

// refused applies op and requires a ConstraintError naming constraint that
// left the head and the intent log as they were.
func refused(t *testing.T, l *Loader, op Op, constraint string) {
	t.Helper()
	before, intents := headOf(l.pdb), l.Metrics.IntentOps
	_, err := l.Apply(op)
	var ce *ConstraintError
	if !errors.As(err, &ce) || !errors.Is(err, ErrConstraint) || ce.Constraint != constraint {
		t.Fatalf("want a %s ConstraintError, got %v", constraint, err)
	}
	if after := headOf(l.pdb); !equalHeads(before, after) || l.Metrics.IntentOps != intents {
		t.Fatalf("the refused write moved the head or logged an intent: %v → %v", before, after)
	}
}

func equalHeads(a, b [][]any) bool { return fmt.Sprint(a) == fmt.Sprint(b) }
