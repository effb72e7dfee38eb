package partition

// This file reproduces the paper's worked example (Figure 2) exactly:
// LINEITEM hash-partitioned by linekey%3, ORDERS PREF-partitioned on
// LINEITEM by orderkey, CUSTOMER PREF-partitioned on ORDERS by custkey —
// including the dup and hasS bitmap indexes shown in the figure.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pref/internal/catalog"
	"pref/internal/table"
	"pref/internal/value"
)

func figure2Schema() *catalog.Schema {
	s := catalog.NewSchema("fig2")
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}}, "linekey"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "custkey", Kind: value.Int}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("customer",
		[]catalog.Column{{Name: "custkey", Kind: value.Int}, {Name: "cname", Kind: value.Str}}, "custkey"))
	return s
}

// buildFigure2 returns the three partitioned tables of Figure 2.
func buildFigure2(t *testing.T) (l, o, c *table.Partitioned) {
	t.Helper()
	s := figure2Schema()

	// LINEITEM, hash partitioned by linekey % 3 (placement pinned by hand
	// to match the figure; our production hash is FNV, not mod).
	lm := s.Table("lineitem")
	l = table.NewPartitioned(lm, 3)
	l.OriginalRows = 5
	rows := []value.Tuple{{0, 1}, {1, 4}, {2, 1}, {3, 2}, {4, 3}}
	for _, r := range rows {
		l.Parts[r[0]%3].Append(r, false, false)
	}

	// ORDERS, PREF on LINEITEM by o.orderkey = l.orderkey.
	om := s.Table("orders")
	od := table.NewData(om)
	for _, r := range []value.Tuple{{1, 1}, {2, 1}, {3, 2}, {4, 1}} {
		od.MustAppend(r)
	}
	var err error
	o, err = placePref(od, &TableScheme{
		Table: "orders", Method: Pref, RefTable: "lineitem",
		Pred: Predicate{ReferencingCols: []string{"orderkey"}, ReferencedCols: []string{"orderkey"}},
	}, l)
	if err != nil {
		t.Fatal(err)
	}

	// CUSTOMER, PREF on ORDERS by c.custkey = o.custkey.
	cm := s.Table("customer")
	cd := table.NewData(cm)
	dict := cm.Dict("cname")
	for _, r := range []struct {
		k    int64
		name string
	}{{1, "A"}, {2, "B"}, {3, "C"}} {
		cd.MustAppend(value.Tuple{r.k, dict.Code(r.name)})
	}
	c, err = placePref(cd, &TableScheme{
		Table: "customer", Method: Pref, RefTable: "orders",
		Pred: Predicate{ReferencingCols: []string{"custkey"}, ReferencedCols: []string{"custkey"}},
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	return l, o, c
}

func rowsOf(p *table.Partition) [][]int64 {
	out := make([][]int64, p.Len())
	for i, r := range p.Rows() {
		out[i] = []int64(r)
	}
	return out
}

// TestPaperFigure2Placement pins the fixture's full placement — every
// stored row in stored order with its dup and hasRef bits — to what the
// partitioner produced while partitions still stored rows and bitmaps.
func TestPaperFigure2Placement(t *testing.T) {
	const want = `lineitem[0]
[0 1] false false
[3 2] false false
lineitem[1]
[1 4] false false
[4 3] false false
lineitem[2]
[2 1] false false
orders[0]
[1 1] false true
[2 1] false true
orders[1]
[3 2] false true
[4 1] false true
orders[2]
[1 1] true true
customer[0]
[1 1] false true
[3 3] false false
customer[1]
[1 1] true true
[2 2] false true
customer[2]
[1 1] true true
`
	l, o, c := buildFigure2(t)
	var got strings.Builder
	for _, pt := range []*table.Partitioned{l, o, c} {
		for p, part := range pt.Parts {
			fmt.Fprintf(&got, "%s[%d]\n", pt.Meta.Name, p)
			for i, r := range part.Rows() {
				fmt.Fprintln(&got, r, part.Dup(i), part.HasRef(i))
			}
		}
	}
	if got.String() != want {
		t.Fatalf("placement:\n%swant:\n%s", got.String(), want)
	}
}

func TestPaperFigure2Orders(t *testing.T) {
	_, o, _ := buildFigure2(t)

	// Partition contents exactly as in the figure.
	want := [][][]int64{
		{{1, 1}, {2, 1}}, // P1 in the figure
		{{4, 1}, {3, 2}}, // P2
		{{1, 1}},         // P3
	}
	// Our partitioner emits tuples in referencing-table order, so P1 holds
	// orderkey 1 then 2, P2 holds 3 then 4. The figure lists P2 as (4,3)
	// then (3,2); the multiset per partition is what Definition 1 fixes.
	got := [][][]int64{rowsOf(o.Parts[0]), rowsOf(o.Parts[1]), rowsOf(o.Parts[2])}
	sortNested := func(x [][]int64) {
		for i := 0; i < len(x); i++ {
			for j := i + 1; j < len(x); j++ {
				if x[j][0] < x[i][0] {
					x[i], x[j] = x[j], x[i]
				}
			}
		}
	}
	for i := range want {
		sortNested(want[i])
		sortNested(got[i])
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("orders partition %d = %v, want %v", i, got[i], want[i])
		}
	}

	// dup index: exactly one duplicate (orderkey 1 in P3); hasL all 1.
	if o.DuplicateRows() != 1 {
		t.Fatalf("orders duplicates = %d, want 1", o.DuplicateRows())
	}
	if !o.Parts[2].Dup(0) {
		t.Error("orders copy in P3 must be marked dup=1")
	}
	for p, part := range o.Parts {
		for i := range part.Rows() {
			if !part.HasRef(i) {
				t.Errorf("orders P%d row %d: hasL must be 1", p, i)
			}
		}
	}
	if o.StoredRows() != 5 || o.OriginalRows != 4 {
		t.Fatalf("orders |T^P|=%d |T|=%d, want 5/4", o.StoredRows(), o.OriginalRows)
	}
}

func TestPaperFigure2Customer(t *testing.T) {
	_, _, c := buildFigure2(t)

	// custkey layout per the figure: P1 {1, 3}, P2 {1, 2}, P3 {1}.
	wantKeys := [][]int64{{1, 3}, {1, 2}, {1}}
	for p, want := range wantKeys {
		var got []int64
		for _, r := range c.Parts[p].Rows() {
			got = append(got, r[0])
		}
		// order-insensitive compare
		if len(got) != len(want) {
			t.Fatalf("customer P%d keys = %v, want %v", p+1, got, want)
		}
		seen := map[int64]int{}
		for _, k := range got {
			seen[k]++
		}
		for _, k := range want {
			seen[k]--
		}
		for k, v := range seen {
			if v != 0 {
				t.Fatalf("customer P%d key %d multiplicity mismatch (got %v want %v)", p+1, k, got, want)
			}
		}
	}

	// Figure 2: customer 1 stored 3x (one dup=0, two dup=1); customer 3
	// (no orders) placed once with hasO=0.
	if c.StoredRows() != 5 || c.OriginalRows != 3 {
		t.Fatalf("customer |T^P|=%d |T|=%d, want 5/3 (P1:2 + P2:2 + P3:1)", c.StoredRows(), c.OriginalRows)
	}
	if c.DuplicateRows() != 2 {
		t.Fatalf("customer duplicates = %d, want 2", c.DuplicateRows())
	}
	hasRefByKey := map[int64][]bool{}
	dupZeroCount := map[int64]int{}
	for _, part := range c.Parts {
		for i, r := range part.Rows() {
			hasRefByKey[r[0]] = append(hasRefByKey[r[0]], part.HasRef(i))
			if !part.Dup(i) {
				dupZeroCount[r[0]]++
			}
		}
	}
	for _, h := range hasRefByKey[1] {
		if !h {
			t.Error("customer 1 must have hasO=1 on every copy")
		}
	}
	for _, h := range hasRefByKey[3] {
		if h {
			t.Error("customer 3 has no orders; hasO must be 0")
		}
	}
	for k, n := range dupZeroCount {
		if n != 1 {
			t.Errorf("customer %d has %d copies with dup=0, want exactly 1", k, n)
		}
	}
}

// Condition (1) of Definition 1, checked directly: every partition of the
// referencing table contains exactly the tuples with a partitioning partner
// in the same partition of the referenced table (plus round-robin orphans).
func TestPrefDefinitionCondition1(t *testing.T) {
	l, o, _ := buildFigure2(t)
	for p := range o.Parts {
		// referenced keys present in this lineitem partition
		refKeys := map[int64]bool{}
		for _, r := range l.Parts[p].Rows() {
			refKeys[r[1]] = true
		}
		for i, r := range o.Parts[p].Rows() {
			if o.Parts[p].HasRef(i) && !refKeys[r[0]] {
				t.Errorf("orders P%d: tuple %v has no partner in lineitem P%d", p, r, p)
			}
		}
		// and every referencing tuple whose key is here must be here
		for _, ord := range []value.Tuple{{1, 1}, {2, 1}, {3, 2}, {4, 1}} {
			if refKeys[ord[0]] {
				found := false
				for _, r := range o.Parts[p].Rows() {
					if r[0] == ord[0] && r[1] == ord[1] {
						found = true
					}
				}
				if !found {
					t.Errorf("orders P%d: missing tuple %v whose key is in lineitem P%d", p, ord, p)
				}
			}
		}
	}
}

// Condition (2) of Definition 1: every original tuple appears in at least
// one partition.
func TestPrefDefinitionCondition2(t *testing.T) {
	_, o, c := buildFigure2(t)
	check := func(name string, pt *table.Partitioned, keys []int64) {
		for _, k := range keys {
			n := 0
			for _, part := range pt.Parts {
				for _, r := range part.Rows() {
					if r[0] == k {
						n++
					}
				}
			}
			if n == 0 {
				t.Errorf("%s: tuple with key %d lost by partitioning", name, k)
			}
		}
	}
	check("orders", o, []int64{1, 2, 3, 4})
	check("customer", c, []int64{1, 2, 3})
}
