package check_test

import (
	"testing"

	"pref/internal/bulkload"
	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/partition"
	"pref/internal/table"
	"pref/internal/value"
)

// storeFixture builds a four-partition store exercising every scheme the
// write checker knows: hash-seeded lineitem, PREF orders (hash-
// equivalent through the predicate) and customer, a replicated nation,
// and a round-robin log table. Each corruption test damages one physical
// detail and asserts the matching rule fires.
func storeFixture(t *testing.T) (*table.PartitionedDatabase, *partition.Config) {
	t.Helper()
	s := catalog.NewSchema("ws")
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "linekey", Kind: value.Int}}, "orderkey", "linekey"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "custkey", Kind: value.Int}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("customer",
		[]catalog.Column{{Name: "custkey", Kind: value.Int}, {Name: "nation", Kind: value.Int}}, "custkey"))
	s.MustAddTable(catalog.MustTable("nation",
		[]catalog.Column{{Name: "nkey", Kind: value.Int}}, "nkey"))
	s.MustAddTable(catalog.MustTable("log",
		[]catalog.Column{{Name: "seq", Kind: value.Int}}, "seq"))
	db := table.NewDatabase(s)
	for i := int64(0); i < 40; i++ {
		db.Tables["lineitem"].MustAppend(value.Tuple{i % 12, i})
	}
	for i := int64(0); i < 12; i++ {
		db.Tables["orders"].MustAppend(value.Tuple{i, i % 6})
	}
	for i := int64(0); i < 6; i++ {
		db.Tables["customer"].MustAppend(value.Tuple{i, i % 3})
	}
	for i := int64(0); i < 3; i++ {
		db.Tables["nation"].MustAppend(value.Tuple{i})
	}
	for i := int64(0); i < 10; i++ {
		db.Tables["log"].MustAppend(value.Tuple{i})
	}
	cfg := partition.NewConfig(4)
	cfg.SetHash("lineitem", "orderkey")
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	cfg.SetReplicated("nation")
	cfg.Set(&partition.TableScheme{Table: "log", Method: partition.RoundRobin})
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pdb, cfg
}

// wantRule asserts VerifyStore reports at least the given rule.
func wantRule(t *testing.T, pdb *table.PartitionedDatabase, cfg *partition.Config, r check.Rule) {
	t.Helper()
	err := check.VerifyStore(pdb, cfg)
	if err == nil {
		t.Fatalf("corrupted store verified cleanly, want rule %s", r)
	}
	vs := check.ViolationsOf(err)
	if !vs.HasRule(r) {
		t.Fatalf("want rule %s, got: %v", r, err)
	}
}

func TestVerifyStoreCleanFixture(t *testing.T) {
	pdb, cfg := storeFixture(t)
	if err := check.VerifyStore(pdb, cfg); err != nil {
		t.Fatalf("freshly partitioned store must verify: %v", err)
	}
}

func TestVerifyStoreTornPartition(t *testing.T) {
	pdb, cfg := storeFixture(t)
	part := pdb.Tables["orders"].Parts[1]
	part.AppendTorn(value.Tuple{99, 99}) // row without bits
	wantRule(t, pdb, cfg, check.RuleWriteTorn)
}

func TestVerifyStoreMisplacedHashRow(t *testing.T) {
	pdb, cfg := storeFixture(t)
	pt := pdb.Tables["lineitem"]
	// Move one hash row to the wrong partition, keeping counts intact.
	var from int
	for p := range pt.Parts {
		if pt.Parts[p].Len() > 0 {
			from = p
			break
		}
	}
	src := pt.Parts[from]
	to := (from + 1) % len(pt.Parts)
	pt.Parts[to].Append(src.Row(0), false, false)
	src.Delete([]int{0})
	wantRule(t, pdb, cfg, check.RuleWriteIndex)
}

func TestVerifyStoreUnjustifiedPrefCopy(t *testing.T) {
	pdb, cfg := storeFixture(t)
	pt := pdb.Tables["customer"]
	// A partnered copy at a partition the referenced table's partition
	// index does not contain for its ring key: customer custkey 50 has
	// no orders partner anywhere, so a hasRef copy is unjustified.
	pt.Parts[2].Append(value.Tuple{50, 0}, false, true)
	pt.OriginalRows++
	wantRule(t, pdb, cfg, check.RuleWriteIndex)
}

func TestVerifyStoreLostPrimary(t *testing.T) {
	pdb, cfg := storeFixture(t)
	pt := pdb.Tables["orders"]
	// Flip every primary copy of one stored value to dup: the value
	// loses its primary and double-counts disappear from OriginalRows.
	for _, part := range pt.Parts {
		dup := part.Columns(2).Cols[2] // the dup column, written in place
		for i := range dup {
			if dup[i] == 0 {
				dup[i] = 1
				pt.OriginalRows-- // keep the count law out of the way
			}
		}
		break
	}
	wantRule(t, pdb, cfg, check.RuleWriteDup)
}

func TestVerifyStoreOrphanDup(t *testing.T) {
	pdb, cfg := storeFixture(t)
	pt := pdb.Tables["customer"]
	// A dup copy not marked partnered: orphans are single-copy and never
	// generate dups.
	pt.Parts[0].Append(value.Tuple{60, 1}, true, false)
	wantRule(t, pdb, cfg, check.RuleWriteDup)
}

func TestVerifyStoreCountDrift(t *testing.T) {
	pdb, cfg := storeFixture(t)
	pdb.Tables["lineitem"].OriginalRows += 7
	wantRule(t, pdb, cfg, check.RuleWriteCount)
}

func TestVerifyStoreReplicatedDivergence(t *testing.T) {
	pdb, cfg := storeFixture(t)
	pt := pdb.Tables["nation"]
	// One replica drops a row: the partition multisets diverge.
	pt.Parts[3].Delete([]int{0})
	wantRule(t, pdb, cfg, check.RuleWriteIndex)
}

func TestVerifyStoreRoundRobinDupBit(t *testing.T) {
	pdb, cfg := storeFixture(t)
	pdb.Tables["log"].Parts[0].Columns(1).Cols[1][0] = 1 // the dup column
	wantRule(t, pdb, cfg, check.RuleWriteDup)
}

// The checker must pass on stores produced by the incremental write
// path, not only by the offline partitioner — hash-equivalent orphan
// placement included.
func TestVerifyStoreAfterIncrementalWrites(t *testing.T) {
	pdb, cfg := storeFixture(t)
	l := bulkload.NewLoader(pdb, cfg)
	ops := []struct {
		tbl string
		row value.Tuple
	}{
		{"lineitem", value.Tuple{200, 1}},
		{"orders", value.Tuple{200, 2}},  // partnered via fresh lineitem
		{"orders", value.Tuple{300, 3}},  // hash-equivalent orphan
		{"customer", value.Tuple{40, 0}}, // round-robin orphan
	}
	for _, op := range ops {
		if _, err := l.Apply(bulkload.Insert(op.tbl, op.row)); err != nil {
			t.Fatalf("insert %s %v: %v", op.tbl, op.row, err)
		}
	}
	if _, err := l.Apply(bulkload.Delete("log", []string{"seq"}, value.Tuple{0})); err != nil {
		t.Fatal(err)
	}
	if err := check.VerifyStore(pdb, cfg); err != nil {
		t.Fatalf("store must verify after incremental writes: %v", err)
	}
}

// TestVerifyStoreMissingPartner: once the schema declares that every
// lineitem row names an order, orders' PREF placement on lineitem promises
// each lineitem copy its order on its own partition, and covers rely on
// it. A write stream inserting a lineitem that names no order breaks the
// promise, and so does a lost order copy. Without the foreign key the
// store promises nothing of the kind.
func TestVerifyStoreMissingPartner(t *testing.T) {
	dangling := func(t *testing.T, pdb *table.PartitionedDatabase, cfg *partition.Config) {
		t.Helper()
		if _, err := bulkload.NewLoader(pdb, cfg).Apply(bulkload.Insert("lineitem", value.Tuple{77, 1})); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("dangling insert", func(t *testing.T) {
		pdb, cfg := storeFixture(t)
		declareOrdersFK(t, pdb)
		if err := check.VerifyStore(pdb, cfg); err != nil {
			t.Fatalf("the fixture honours the foreign key: %v", err)
		}
		dangling(t, pdb, cfg)
		wantRule(t, pdb, cfg, check.RuleWritePartner)
	})
	t.Run("lost partner copy", func(t *testing.T) {
		pdb, cfg := storeFixture(t)
		declareOrdersFK(t, pdb)
		pt := pdb.Tables["orders"]
		for _, part := range pt.Parts {
			if part.Len() > 0 {
				if !part.Dup(0) {
					pt.OriginalRows-- // keep the count law out of the way
				}
				part.Delete([]int{0})
				break
			}
		}
		wantRule(t, pdb, cfg, check.RuleWritePartner)
	})
	t.Run("no foreign key", func(t *testing.T) {
		pdb, cfg := storeFixture(t)
		dangling(t, pdb, cfg)
		if err := check.VerifyStore(pdb, cfg); err != nil {
			t.Fatalf("without the foreign key a lineitem needs no order: %v", err)
		}
	})
}

// declareOrdersFK declares a foreign key the fixture's data honour: every
// lineitem row's orderkey names an order.
func declareOrdersFK(t *testing.T, pdb *table.PartitionedDatabase) {
	t.Helper()
	if err := pdb.Schema.AddFK(catalog.ForeignKey{Name: "fk_lineitem_orders", FromTable: "lineitem",
		FromCols: []string{"orderkey"}, ToTable: "orders", ToCols: []string{"orderkey"}, ToIsUnique: true}); err != nil {
		t.Fatal(err)
	}
}
