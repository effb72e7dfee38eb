package catalog

import (
	"math"
	"testing"

	"pref/internal/value"
)

func twoTableSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema("test")
	s.MustAddTable(MustTable("customer",
		[]Column{{"custkey", value.Int}, {"name", value.Str}}, "custkey"))
	s.MustAddTable(MustTable("orders",
		[]Column{{"orderkey", value.Int}, {"custkey", value.Int}, {"total", value.Money}}, "orderkey"))
	s.MustAddFK(ForeignKey{
		Name: "fk_orders_customer", FromTable: "orders", FromCols: []string{"custkey"},
		ToTable: "customer", ToCols: []string{"custkey"}, ToIsUnique: true,
	})
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := twoTableSchema(t)
	if s.Table("customer") == nil || s.Table("orders") == nil {
		t.Fatal("tables missing")
	}
	if s.Table("nope") != nil {
		t.Fatal("unknown table should be nil")
	}
	names := s.TableNames()
	if len(names) != 2 || names[0] != "customer" || names[1] != "orders" {
		t.Fatalf("TableNames = %v", names)
	}
	if len(s.FKs) != 1 {
		t.Fatalf("FKs = %d", len(s.FKs))
	}
}

func TestColIndex(t *testing.T) {
	s := twoTableSchema(t)
	o := s.Table("orders")
	if o.ColIndex("custkey") != 1 {
		t.Fatalf("ColIndex(custkey) = %d", o.ColIndex("custkey"))
	}
	if o.ColIndex("missing") != -1 {
		t.Fatal("missing column should be -1")
	}
	idx, err := o.ColIndexes([]string{"total", "orderkey"})
	if err != nil {
		t.Fatal(err)
	}
	if idx[0] != 2 || idx[1] != 0 {
		t.Fatalf("ColIndexes = %v", idx)
	}
	if _, err := o.ColIndexes([]string{"nope"}); err == nil {
		t.Fatal("expected error for unknown column")
	}
}

func TestDuplicateColumnRejected(t *testing.T) {
	if _, err := NewTable("t", []Column{{"a", value.Int}, {"a", value.Int}}); err == nil {
		t.Fatal("duplicate column must error")
	}
}

func TestBadPKRejected(t *testing.T) {
	if _, err := NewTable("t", []Column{{"a", value.Int}}, "zz"); err == nil {
		t.Fatal("pk referencing unknown column must error")
	}
}

func TestDuplicateTableRejected(t *testing.T) {
	s := NewSchema("x")
	tb := MustTable("t", []Column{{"a", value.Int}})
	if err := s.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(tb); err == nil {
		t.Fatal("duplicate table must error")
	}
}

func TestFKValidation(t *testing.T) {
	s := twoTableSchema(t)
	bad := []ForeignKey{
		{Name: "f1", FromTable: "nope", FromCols: []string{"x"}, ToTable: "customer", ToCols: []string{"custkey"}},
		{Name: "f2", FromTable: "orders", FromCols: []string{"x"}, ToTable: "customer", ToCols: []string{"custkey"}},
		{Name: "f3", FromTable: "orders", FromCols: []string{"custkey"}, ToTable: "customer", ToCols: []string{"zz"}},
		{Name: "f4", FromTable: "orders", FromCols: nil, ToTable: "customer", ToCols: nil},
		{Name: "f5", FromTable: "orders", FromCols: []string{"custkey"}, ToTable: "customer", ToCols: []string{"custkey", "name"}},
	}
	for _, fk := range bad {
		if err := s.AddFK(fk); err == nil {
			t.Errorf("fk %s should have been rejected", fk.Name)
		}
	}
}

func TestIsPK(t *testing.T) {
	s := twoTableSchema(t)
	c := s.Table("customer")
	if !c.IsPK([]string{"custkey"}) {
		t.Fatal("custkey is the pk")
	}
	if c.IsPK([]string{"name"}) {
		t.Fatal("name is not the pk")
	}
	multi := MustTable("ps", []Column{{"a", value.Int}, {"b", value.Int}}, "a", "b")
	if !multi.IsPK([]string{"b", "a"}) {
		t.Fatal("pk check must be order-insensitive")
	}
	nopk := MustTable("n", []Column{{"a", value.Int}})
	if nopk.IsPK(nil) || nopk.IsPK([]string{}) {
		t.Fatal("empty pk never matches")
	}
}

func TestDicts(t *testing.T) {
	s := twoTableSchema(t)
	c := s.Table("customer")
	if c.Dict("name") == nil {
		t.Fatal("str column should have a dict")
	}
	if c.Dict("custkey") != nil {
		t.Fatal("int column should not have a dict")
	}
}

func TestWithout(t *testing.T) {
	s := twoTableSchema(t)
	reduced := s.Without("customer")
	if reduced.Table("customer") != nil {
		t.Fatal("customer should be removed")
	}
	if reduced.Table("orders") == nil {
		t.Fatal("orders should remain")
	}
	if len(reduced.FKs) != 0 {
		t.Fatal("fk touching removed table should be dropped")
	}
	// Original untouched.
	if s.Table("customer") == nil || len(s.FKs) != 1 {
		t.Fatal("Without must not mutate the receiver")
	}
}

// TestDateGapHolds: a gap holds between dates Min to Max days apart, and
// never for a NULL on either side or a difference beyond int64.
func TestDateGapHolds(t *testing.T) {
	g := DateGap{Min: 1, Max: 10}
	for _, c := range []struct {
		child, parent int64
		want          bool
	}{
		{101, 100, true}, {110, 100, true}, {100, 100, false}, {111, 100, false}, {-9, -10, true},
		{value.Null, 100, false}, {101, value.Null, false},
		{math.MaxInt64, -5, false}, {math.MinInt64 + 1, 5, false}, {math.MinInt64 + 2, math.MinInt64 + 1, true},
	} {
		if got := g.Holds(c.child, c.parent); got != c.want {
			t.Errorf("Holds(%d, %d) = %v, want %v", c.child, c.parent, got, c.want)
		}
	}
}
