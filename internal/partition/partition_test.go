package partition

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pref/internal/catalog"
	"pref/internal/table"
	"pref/internal/value"
)

// testDB builds a small customer/orders/lineitem database with a known
// fan-out: nCust customers, each with ordersPer orders, each with linesPer
// lineitems.
func testDB(t *testing.T, nCust, ordersPer, linesPer int) *table.Database {
	t.Helper()
	s := catalog.NewSchema("t")
	s.MustAddTable(catalog.MustTable("customer",
		[]catalog.Column{{Name: "custkey", Kind: value.Int}, {Name: "nation", Kind: value.Int}}, "custkey"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "custkey", Kind: value.Int}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}}, "linekey"))
	db := table.NewDatabase(s)
	line := int64(0)
	order := int64(0)
	for c := int64(0); c < int64(nCust); c++ {
		db.Tables["customer"].MustAppend(value.Tuple{c, c % 25})
		for o := 0; o < ordersPer; o++ {
			db.Tables["orders"].MustAppend(value.Tuple{order, c})
			for l := 0; l < linesPer; l++ {
				db.Tables["lineitem"].MustAppend(value.Tuple{line, order})
				line++
			}
			order++
		}
	}
	return db
}

func chainConfig(n int) *Config {
	cfg := NewConfig(n)
	cfg.SetHash("lineitem", "linekey")
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	return cfg
}

func TestApplyChain(t *testing.T) {
	db := testDB(t, 20, 3, 4)
	pdb, err := Apply(db, chainConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// Hash table: no duplicates, all rows present.
	li := pdb.Tables["lineitem"]
	if li.StoredRows() != db.Tables["lineitem"].Len() {
		t.Fatalf("lineitem stored %d, want %d", li.StoredRows(), db.Tables["lineitem"].Len())
	}
	if li.DuplicateRows() != 0 {
		t.Fatal("hash partitioning must not duplicate")
	}
	// PREF tables: at least one copy per original tuple.
	for _, name := range []string{"orders", "customer"} {
		pt := pdb.Tables[name]
		if pt.StoredRows() < pt.OriginalRows {
			t.Fatalf("%s lost tuples: %d < %d", name, pt.StoredRows(), pt.OriginalRows)
		}
	}
	// Co-location: every orders tuple must find its lineitems locally.
	// (joining orders⋈lineitem per partition must yield all pairs)
	localPairs := 0
	for p := range li.Parts {
		orderKeys := map[int64]bool{}
		for _, r := range pdb.Tables["orders"].Parts[p].Rows() {
			orderKeys[r[0]] = true
		}
		for _, r := range li.Parts[p].Rows() {
			if !orderKeys[r[1]] {
				t.Fatalf("partition %d: lineitem %v has no local order", p, r)
			}
			localPairs++
		}
	}
	if localPairs != db.Tables["lineitem"].Len() {
		t.Fatalf("local join pairs = %d, want %d", localPairs, db.Tables["lineitem"].Len())
	}
}

func TestPrefFullLocalityUpChain(t *testing.T) {
	// customer PREF on orders: every orders tuple (in every partition copy)
	// must find its customer in the same partition.
	db := testDB(t, 10, 2, 3)
	pdb, err := Apply(db, chainConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for p := range pdb.Tables["orders"].Parts {
		custKeys := map[int64]bool{}
		for _, r := range pdb.Tables["customer"].Parts[p].Rows() {
			custKeys[r[0]] = true
		}
		for _, r := range pdb.Tables["orders"].Parts[p].Rows() {
			if !custKeys[r[1]] {
				t.Fatalf("partition %d: order %v has no local customer", p, r)
			}
		}
	}
}

func TestReplicated(t *testing.T) {
	db := testDB(t, 5, 1, 1)
	cfg := chainConfig(4)
	cfg.SetReplicated("customer")
	// orders can't PREF a replicated table in this config; re-point it.
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	pdb, err := Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := pdb.Tables["customer"]
	if !c.Replicated {
		t.Fatal("customer should be marked replicated")
	}
	if c.StoredRows() != 4*5 {
		t.Fatalf("replicated stored = %d, want 20", c.StoredRows())
	}
	if got := c.Redundancy(); got != 3.0 {
		t.Fatalf("replicated redundancy = %v, want n-1 = 3", got)
	}
	for p := 0; p < 4; p++ {
		if c.Parts[p].Len() != 5 {
			t.Fatalf("partition %d has %d rows, want 5", p, c.Parts[p].Len())
		}
	}
}

func TestRoundRobin(t *testing.T) {
	db := testDB(t, 9, 1, 1)
	cfg := NewConfig(3)
	cfg.Set(&TableScheme{Table: "customer", Method: RoundRobin})
	cfg.Set(&TableScheme{Table: "orders", Method: RoundRobin})
	cfg.Set(&TableScheme{Table: "lineitem", Method: RoundRobin})
	pdb, err := Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if got := pdb.Tables["customer"].Parts[p].Len(); got != 3 {
			t.Fatalf("rr partition %d = %d rows, want 3", p, got)
		}
	}
}

func TestRangePartitioning(t *testing.T) {
	db := testDB(t, 10, 1, 1)
	cfg := NewConfig(3)
	cfg.Set(&TableScheme{Table: "customer", Method: Range, Cols: []string{"custkey"}, Bounds: []int64{3, 7}})
	cfg.Set(&TableScheme{Table: "orders", Method: RoundRobin})
	cfg.Set(&TableScheme{Table: "lineitem", Method: RoundRobin})
	pdb, err := Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := pdb.Tables["customer"]
	if c.Parts[0].Len() != 3 || c.Parts[1].Len() != 4 || c.Parts[2].Len() != 3 {
		t.Fatalf("range sizes = %d/%d/%d, want 3/4/3",
			c.Parts[0].Len(), c.Parts[1].Len(), c.Parts[2].Len())
	}
	for _, r := range c.Parts[0].Rows() {
		if r[0] >= 3 {
			t.Fatalf("partition 0 contains %d", r[0])
		}
	}
}

func TestRangePartitionFunc(t *testing.T) {
	bounds := []int64{10, 20, 30}
	cases := map[int64]int{-5: 0, 9: 0, 10: 1, 19: 1, 20: 2, 29: 2, 30: 3, 100: 3}
	for v, want := range cases {
		if got := RangeTarget(v, bounds); got != want {
			t.Errorf("RangeTarget(%d) = %d, want %d", v, got, want)
		}
	}
	if RangeTarget(5, nil) != 0 {
		t.Error("no bounds → partition 0")
	}
}

func TestOrphansRoundRobin(t *testing.T) {
	// Orders referencing customers that don't exist must still be stored
	// (condition 2) and spread round-robin with hasRef=0. The referenced
	// table is hashed on a non-predicate column so the configuration is
	// not hash-equivalent (that case is tested separately).
	s := catalog.NewSchema("t")
	s.MustAddTable(catalog.MustTable("customer",
		[]catalog.Column{{Name: "custkey", Kind: value.Int}, {Name: "region", Kind: value.Int}}, "custkey"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "custkey", Kind: value.Int}}, "orderkey"))
	db := table.NewDatabase(s)
	db.Tables["customer"].MustAppend(value.Tuple{1, 1})
	for i := int64(0); i < 6; i++ {
		db.Tables["orders"].MustAppend(value.Tuple{i, 999}) // all orphans
	}
	cfg := NewConfig(3)
	cfg.SetHash("customer", "region")
	cfg.SetPref("orders", "customer", []string{"custkey"}, []string{"custkey"})
	pdb, err := Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := pdb.Tables["orders"]
	if o.StoredRows() != 6 || o.DuplicateRows() != 0 {
		t.Fatalf("orphans stored=%d dups=%d, want 6/0", o.StoredRows(), o.DuplicateRows())
	}
	for p := 0; p < 3; p++ {
		if o.Parts[p].Len() != 2 {
			t.Fatalf("orphan spread uneven: partition %d has %d", p, o.Parts[p].Len())
		}
		for i := range o.Parts[p].Rows() {
			if o.Parts[p].HasRef(i) {
				t.Fatal("orphan must have hasRef=0")
			}
		}
	}
}

func TestHashEquivalentOrphanPlacement(t *testing.T) {
	// With customer hashed on the predicate column, orders are
	// hash-equivalent and orphans are placed by hash (not round-robin),
	// preserving the equivalence.
	s := catalog.NewSchema("t")
	s.MustAddTable(catalog.MustTable("customer",
		[]catalog.Column{{Name: "custkey", Kind: value.Int}}, "custkey"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "custkey", Kind: value.Int}}, "orderkey"))
	db := table.NewDatabase(s)
	db.Tables["customer"].MustAppend(value.Tuple{1})
	for i := int64(0); i < 6; i++ {
		db.Tables["orders"].MustAppend(value.Tuple{i, 999}) // orphans, same key
	}
	cfg := NewConfig(3)
	cfg.SetHash("customer", "custkey")
	cfg.SetPref("orders", "customer", []string{"custkey"}, []string{"custkey"})
	if _, ok := cfg.HashEquivalent("orders"); !ok {
		t.Fatal("orders should be hash-equivalent")
	}
	pdb, err := Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int(value.MakeKey1(999).Hash() % 3)
	o := pdb.Tables["orders"]
	for p := 0; p < 3; p++ {
		wantLen := 0
		if p == want {
			wantLen = 6
		}
		if o.Parts[p].Len() != wantLen {
			t.Fatalf("partition %d has %d rows, want %d (hash placement)", p, o.Parts[p].Len(), wantLen)
		}
	}
}

func TestHashEquivalent(t *testing.T) {
	cfg := chainConfig(4) // lineitem HASH(linekey); orders/customer PREF
	if _, ok := cfg.HashEquivalent("orders"); ok {
		t.Fatal("orders is not hash-equivalent when the seed hashes on linekey")
	}
	if cols, ok := cfg.HashEquivalent("lineitem"); !ok || cols[0] != "linekey" {
		t.Fatal("hash table must be hash-equivalent on its own columns")
	}

	cfg2 := NewConfig(4)
	cfg2.SetHash("lineitem", "orderkey")
	cfg2.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	cfg2.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	cols, ok := cfg2.HashEquivalent("orders")
	if !ok || len(cols) != 1 || cols[0] != "orderkey" {
		t.Fatalf("orders hash-equivalence = %v %v, want [orderkey]", cols, ok)
	}
	// customer's predicate column (custkey) does not cover orders'
	// equivalent hash column (orderkey): not equivalent.
	if _, ok := cfg2.HashEquivalent("customer"); ok {
		t.Fatal("customer must not be hash-equivalent")
	}
}

func TestHashEquivalentNoDuplicates(t *testing.T) {
	// A hash-equivalent PREF table must come out of partitioning with
	// zero duplicates and exactly hash placement.
	db := testDB(t, 10, 3, 4)
	cfg := NewConfig(5)
	cfg.SetHash("lineitem", "orderkey")
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	pdb, err := Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := pdb.Tables["orders"]
	if o.DuplicateRows() != 0 {
		t.Fatalf("hash-equivalent orders has %d duplicates", o.DuplicateRows())
	}
	ok := o.Meta.ColIndex("orderkey")
	for p, part := range o.Parts {
		for _, r := range part.Rows() {
			if int(value.MakeKey1(r[ok]).Hash()%5) != p {
				t.Fatalf("order %v in partition %d, not at its hash position", r, p)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	db := testDB(t, 1, 1, 1)
	s := db.Schema

	bad := []*Config{
		NewConfig(0).SetHash("customer", "custkey"),
		NewConfig(2).SetHash("nope", "x"),
		NewConfig(2).SetHash("customer"),
		NewConfig(2).SetHash("customer", "nope"),
		NewConfig(2).SetPref("orders", "nope", []string{"custkey"}, []string{"custkey"}),
		NewConfig(2).SetPref("orders", "customer", []string{"nope"}, []string{"custkey"}),
		NewConfig(2).SetPref("orders", "customer", []string{"custkey"}, []string{"nope"}),
		NewConfig(2).SetPref("orders", "customer", nil, nil),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(s); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}

	// Cycle: orders → customer → orders.
	cyc := NewConfig(2)
	cyc.SetPref("orders", "customer", []string{"custkey"}, []string{"custkey"})
	cyc.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	if err := cyc.Validate(s); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle must be rejected, got %v", err)
	}
}

func TestSeedTableAndChain(t *testing.T) {
	cfg := chainConfig(4)
	seed, err := cfg.SeedTable("customer")
	if err != nil {
		t.Fatal(err)
	}
	if seed != "lineitem" {
		t.Fatalf("seed = %s, want lineitem", seed)
	}
	chain, err := cfg.Chain("customer")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"customer", "orders", "lineitem"}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
	if seed, _ := cfg.SeedTable("lineitem"); seed != "lineitem" {
		t.Fatal("seed of non-PREF table is itself")
	}
}

func TestOrderReferencedFirst(t *testing.T) {
	cfg := chainConfig(2)
	order, err := cfg.Order()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if pos["lineitem"] > pos["orders"] || pos["orders"] > pos["customer"] {
		t.Fatalf("order = %v", order)
	}
}

func TestApplyMissingScheme(t *testing.T) {
	db := testDB(t, 1, 1, 1)
	cfg := NewConfig(2)
	cfg.SetHash("customer", "custkey")
	if _, err := Apply(db, cfg); err == nil {
		t.Fatal("Apply must reject configs not covering all tables")
	}
}

// TestApplyKeepsDeclaredGaps: Apply refuses a database that breaks a date
// gap its schema declares — a line shipped outside its order's gap, or a
// NULL in either gapped date — and partitions one that keeps it, orphans
// included.
func TestApplyKeepsDeclaredGaps(t *testing.T) {
	s := catalog.NewSchema("g")
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "odate", Kind: value.Date}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}, {Name: "sdate", Kind: value.Date}}, "linekey"))
	s.MustAddFK(catalog.ForeignKey{Name: "fk_l_o", FromTable: "lineitem", FromCols: []string{"orderkey"},
		ToTable: "orders", ToCols: []string{"orderkey"}, ToIsUnique: true,
		Gaps: []catalog.DateGap{{ChildDate: "sdate", ParentDate: "odate", Min: 1, Max: 10}}})
	cfg := NewConfig(2)
	cfg.SetHash("orders", "orderkey")
	cfg.SetPref("lineitem", "orders", []string{"orderkey"}, []string{"orderkey"})
	build := func(order, line value.Tuple) *table.Database {
		db := table.NewDatabase(s)
		db.Tables["orders"].MustAppend(value.Tuple{1, 100})
		db.Tables["orders"].MustAppend(order)
		db.Tables["lineitem"].MustAppend(value.Tuple{0, 1, 101})
		db.Tables["lineitem"].MustAppend(value.Tuple{1, 9, 500}) // names no order
		db.Tables["lineitem"].MustAppend(line)
		return db
	}
	if _, err := Apply(build(value.Tuple{2, 200}, value.Tuple{2, 2, 210}), cfg); err != nil {
		t.Fatalf("a database that keeps the gap: %v", err)
	}
	for name, db := range map[string]*table.Database{
		"a line shipped on its order's day": build(value.Tuple{2, 200}, value.Tuple{2, 2, 200}),
		"a line shipped 11 days after":      build(value.Tuple{2, 200}, value.Tuple{2, 2, 211}),
		"a NULL ship date":                  build(value.Tuple{2, 200}, value.Tuple{2, 2, value.Null}),
		"a NULL order date":                 build(value.Tuple{2, value.Null}, value.Tuple{2, 1, 105}),
		"a NULL ship date naming no order":  build(value.Tuple{2, 200}, value.Tuple{2, 9, value.Null}),
	} {
		if _, err := Apply(db, cfg); err == nil || !strings.Contains(err.Error(), "gap") {
			t.Errorf("%s: Apply returned %v, want a gap error", name, err)
		}
	}
}

func TestPredicateEqual(t *testing.T) {
	a := Predicate{ReferencingCols: []string{"a", "b"}, ReferencedCols: []string{"x", "y"}}
	b := Predicate{ReferencingCols: []string{"b", "a"}, ReferencedCols: []string{"y", "x"}}
	c := Predicate{ReferencingCols: []string{"a", "b"}, ReferencedCols: []string{"y", "x"}}
	if !a.Equal(b) {
		t.Fatal("conjunct order must not matter")
	}
	if a.Equal(c) {
		t.Fatal("different pairings are different predicates")
	}
	if a.Equal(Predicate{ReferencingCols: []string{"a"}, ReferencedCols: []string{"x"}}) {
		t.Fatal("different lengths are different predicates")
	}
}

func TestConfigCloneIndependent(t *testing.T) {
	cfg := chainConfig(4)
	cp := cfg.Clone()
	cp.Schemes["orders"].RefTable = "customer"
	cp.Schemes["orders"].Pred.ReferencingCols[0] = "zzz"
	if cfg.Schemes["orders"].RefTable != "lineitem" {
		t.Fatal("Clone must deep-copy schemes")
	}
	if cfg.Schemes["orders"].Pred.ReferencingCols[0] != "orderkey" {
		t.Fatal("Clone must deep-copy predicate columns")
	}
}

func TestConfigString(t *testing.T) {
	s := chainConfig(4).String()
	for _, want := range []string{"partitions=4", "lineitem HASH(linekey)", "orders PREF on lineitem"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Config.String missing %q:\n%s", want, s)
		}
	}
}

// placePref PREF-partitions data by ts against a referenced table whose
// placement the test pinned by hand, placing through the table's Placer
// as Apply does.
func placePref(data *table.Data, ts *TableScheme, ref *table.Partitioned) (*table.Partitioned, error) {
	n := ref.NumPartitions()
	pt := table.NewPartitioned(data.Meta, n)
	out := &table.PartitionedDatabase{N: n, Tables: map[string]*table.Partitioned{ts.RefTable: ref, ts.Table: pt}}
	return pt, place(data, NewConfig(n).Set(ts), out)
}

// Property: PREF never loses tuples and the number of dup=0 copies equals
// the original cardinality, for random referenced placements and random
// referencing multiplicities.
func TestPrefInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)

		s := catalog.NewSchema("p")
		s.MustAddTable(catalog.MustTable("s",
			[]catalog.Column{{Name: "k", Kind: value.Int}}, "k"))
		s.MustAddTable(catalog.MustTable("r",
			[]catalog.Column{{Name: "id", Kind: value.Int}, {Name: "k", Kind: value.Int}}, "id"))

		// Referenced table: keys 0..9, each placed in 1..n random partitions.
		ref := table.NewPartitioned(s.Table("s"), n)
		for k := int64(0); k < 10; k++ {
			placed := map[int]bool{}
			for c := 0; c <= rng.Intn(n); c++ {
				placed[rng.Intn(n)] = true
			}
			first := true
			for p := 0; p < n; p++ {
				if placed[p] {
					ref.Parts[p].Append(value.Tuple{k}, !first, false)
					first = false
				}
			}
			ref.OriginalRows++
		}

		rd := table.NewData(s.Table("r"))
		m := 1 + rng.Intn(40)
		for i := 0; i < m; i++ {
			rd.MustAppend(value.Tuple{int64(i), int64(rng.Intn(14))}) // keys 10..13 are orphans
		}
		pt, err := placePref(rd, &TableScheme{
			Table: "r", Method: Pref, RefTable: "s",
			Pred: Predicate{ReferencingCols: []string{"k"}, ReferencedCols: []string{"k"}},
		}, ref)
		if err != nil {
			return false
		}
		// Invariant 1: dup=0 count == original cardinality.
		if nonDup := pt.StoredRows() - pt.DuplicateRows(); nonDup != m {
			return false
		}
		// Invariant 2: stored >= original.
		if pt.StoredRows() < m {
			return false
		}
		// Invariant 3: co-location — every hasRef tuple has a local partner.
		for p := range pt.Parts {
			keys := map[int64]bool{}
			for _, r := range ref.Parts[p].Rows() {
				keys[r[0]] = true
			}
			for i, r := range pt.Parts[p].Rows() {
				if pt.Parts[p].HasRef(i) != keys[r[1]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
