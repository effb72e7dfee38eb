package bulkload

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/table"
	"pref/internal/value"
)

func schemaCOL(t *testing.T) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema("t")
	s.MustAddTable(catalog.MustTable("customer",
		[]catalog.Column{{Name: "custkey", Kind: value.Int}, {Name: "nation", Kind: value.Int}}, "custkey"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "custkey", Kind: value.Int}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}}, "linekey"))
	return s
}

func chainCfg(n int) *partition.Config {
	cfg := partition.NewConfig(n)
	cfg.SetHash("lineitem", "linekey")
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	return cfg
}

func fullDB(t *testing.T, nCust, ordersPer, linesPer int) *table.Database {
	t.Helper()
	db := table.NewDatabase(schemaCOL(t))
	line, order := int64(0), int64(0)
	for c := int64(0); c < int64(nCust); c++ {
		db.Tables["customer"].MustAppend(value.Tuple{c, c % 5})
		for o := 0; o < ordersPer; o++ {
			db.Tables["orders"].MustAppend(value.Tuple{order, c})
			for li := 0; li < linesPer; li++ {
				db.Tables["lineitem"].MustAppend(value.Tuple{line, order})
				line++
			}
			order++
		}
	}
	return db
}

// Bulk loading into the empty store must build exactly the partitioned
// database the offline partitioner builds, under every scheme: the same
// rows in the same stored order with the same dup and hasRef bits, the
// same Replicated flags, cardinalities and cursors, and both stores clean
// under check.VerifyStore.
func TestLoadMatchesOfflinePartitioner(t *testing.T) {
	each := func(cfg *partition.Config, m partition.Method, cols map[string]string) *partition.Config {
		for tbl, col := range cols {
			ts := &partition.TableScheme{Table: tbl, Method: m}
			switch m {
			case partition.Hash:
				ts.Cols = []string{col}
			case partition.Range:
				ts.Cols, ts.Bounds = []string{col}, []int64{8, 20, 30}
			}
			cfg.Set(ts)
		}
		return cfg
	}
	keys := map[string]string{"lineitem": "linekey", "orders": "orderkey", "customer": "custkey"}
	hashEquivalent := partition.NewConfig(4).SetHash("lineitem", "orderkey")
	hashEquivalent.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	hashEquivalent.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	for _, tc := range []struct {
		name string
		cfg  *partition.Config
	}{
		{"hash", each(partition.NewConfig(4), partition.Hash, keys)},
		{"round-robin", each(partition.NewConfig(4), partition.RoundRobin, keys)},
		{"range", each(partition.NewConfig(4), partition.Range, keys)},
		{"replicated", each(partition.NewConfig(4), partition.Replicated, keys)},
		// lineitem is hashed on linekey, so orders' orphans go round-robin.
		{"pref/round-robin-orphans", chainCfg(4)},
		// orders is hash-equivalent on orderkey and hashes its orphans.
		{"pref/hash-equivalent-orphans", hashEquivalent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := fullDB(t, 12, 3, 4)
			// Orders without lineitems and customers without orders are
			// PREF orphans.
			for k := int64(0); k < 5; k++ {
				db.Tables["orders"].MustAppend(value.Tuple{100 + k, 50 + k})
				db.Tables["customer"].MustAppend(value.Tuple{60 + k, k})
			}
			offline, err := partition.Apply(db, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			loaded := emptyPDB(t, db, tc.cfg)
			if _, err := NewLoader(loaded, tc.cfg).LoadDatabase(db); err != nil {
				t.Fatal(err)
			}
			sameStore(t, tc.cfg, offline, loaded)
		})
	}
}

// sameStore fails the test unless two partitioned databases of cfg both
// pass check.VerifyStore and hold every table identically: each
// partition's columns in stored order, dup and hasRef included, and the
// table's Replicated (set exactly for replicated schemes), OriginalRows
// and Cursor.
func sameStore(t *testing.T, cfg *partition.Config, want, got *table.PartitionedDatabase) {
	t.Helper()
	for _, pdb := range []*table.PartitionedDatabase{want, got} {
		if err := check.VerifyStore(pdb, cfg); err != nil {
			t.Fatalf("store under %v: %v", cfg, err)
		}
	}
	if len(want.Tables) != len(got.Tables) || want.N != got.N {
		t.Fatalf("stores differ in shape: %d tables on %d nodes vs %d on %d",
			len(want.Tables), want.N, len(got.Tables), got.N)
	}
	for name, a := range want.Tables {
		b := got.Tables[name]
		if b == nil {
			t.Fatalf("%s missing", name)
		}
		if a.Replicated != (cfg.Scheme(name).Method == partition.Replicated) {
			t.Fatalf("%s: Replicated = %v under %v", name, a.Replicated, cfg.Scheme(name))
		}
		if a.Replicated != b.Replicated || a.OriginalRows != b.OriginalRows || a.Cursor != b.Cursor {
			t.Fatalf("%s: Replicated/OriginalRows/Cursor %v/%d/%d vs %v/%d/%d", name,
				a.Replicated, a.OriginalRows, a.Cursor, b.Replicated, b.OriginalRows, b.Cursor)
		}
		w := a.Meta.NumCols()
		for p := range a.Parts {
			ac, bc := a.Parts[p].Columns(w).Cols, b.Parts[p].Columns(w).Cols
			for j := range ac {
				if !slices.Equal(ac[j], bc[j]) {
					t.Fatalf("%s partition %d differs:\n%v\n%v", name, p, ac, bc)
				}
			}
		}
	}
}

// A round-robin table's cursor continues where Apply left it: seven rows
// on three partitions sit 3/2/2, and two more inserts make 3/3/3.
func TestRoundRobinCursorContinuesAfterApply(t *testing.T) {
	cfg := partition.NewConfig(3).SetHash("customer", "custkey").SetHash("lineitem", "linekey")
	cfg.Set(&partition.TableScheme{Table: "orders", Method: partition.RoundRobin})
	db := table.NewDatabase(schemaCOL(t))
	for k := int64(0); k < 7; k++ {
		db.Tables["orders"].MustAppend(value.Tuple{k, 0})
	}
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(pdb, cfg)
	for k := int64(7); k < 9; k++ {
		if err := l.Insert("orders", value.Tuple{k, 0}); err != nil {
			t.Fatal(err)
		}
	}
	for p, part := range pdb.Tables["orders"].Parts {
		if part.Len() != 3 {
			t.Fatalf("partition %d holds %d orders, want 3 on each of 3", p, part.Len())
		}
	}
}

func emptyPDB(t *testing.T, db *table.Database, cfg *partition.Config) *table.PartitionedDatabase {
	t.Helper()
	pdb, err := partition.NewStore(db.Schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pdb
}

// indexCounts reports how many stored copies of a partition carry the dup
// and the hasRef bit.
func indexCounts(p *table.Partition) (n [2]int) {
	for i := 0; i < p.Len(); i++ {
		if p.Dup(i) {
			n[0]++
		}
		if p.HasRef(i) {
			n[1]++
		}
	}
	return n
}

func sameRowMultiset(a, b []value.Tuple) bool {
	key := func(rows []value.Tuple) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		sort.Strings(out)
		return out
	}
	return reflect.DeepEqual(key(a), key(b))
}

func TestPartitionIndexAblation(t *testing.T) {
	db := fullDB(t, 10, 2, 3)
	cfg := chainCfg(4)

	fast := NewLoader(emptyPDB(t, db, cfg), cfg)
	if _, err := fast.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	slow := NewLoader(emptyPDB(t, db, cfg), cfg)
	slow.UsePartitionIndex = false
	if _, err := slow.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	if fast.Lookups == 0 {
		t.Fatal("indexed loader should record lookups")
	}
	if slow.ScannedRows == 0 {
		t.Fatal("unindexed loader should scan the referenced table")
	}
	// The scan path touches orders of magnitude more rows than the number
	// of indexed lookups — the Section 2.3 claim.
	if slow.ScannedRows < fast.Lookups*10 {
		t.Fatalf("scan path rows %d vs lookups %d: index not pulling its weight",
			slow.ScannedRows, fast.Lookups)
	}
}

func TestInsertOrphanThenPartnerBatches(t *testing.T) {
	db := fullDB(t, 2, 1, 1)
	cfg := chainCfg(2)
	pdb := emptyPDB(t, db, cfg)
	l := NewLoader(pdb, cfg)
	if _, err := l.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	// Insert an order whose orderkey has no lineitem: round-robin orphan.
	if err := l.Insert("orders", value.Tuple{999, 0}); err != nil {
		t.Fatal(err)
	}
	o := pdb.Tables["orders"]
	found := 0
	for _, p := range o.Parts {
		for i, r := range p.Rows() {
			if r[0] == 999 {
				found++
				if p.HasRef(i) {
					t.Fatal("orphan order must have hasRef=0")
				}
			}
		}
	}
	if found != 1 {
		t.Fatalf("orphan stored %d times, want 1", found)
	}

	// Insert lineitems for an existing order key spread across partitions,
	// then a customer referencing it: the loader must see fresh indexes.
	if err := l.Insert("lineitem", value.Tuple{1000, 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Insert("orders", value.Tuple{1, 1}); err != nil { // duplicate key 1 on purpose
		t.Fatal(err)
	}
	if err := l.Insert("customer", value.Tuple{50, 1}); err != nil {
		t.Fatal(err)
	}
	c := pdb.Tables["customer"]
	copies := 0
	for _, p := range c.Parts {
		for _, r := range p.Rows() {
			if r[0] == 50 {
				copies++
			}
		}
	}
	if copies == 0 {
		t.Fatal("customer 50 lost")
	}
}

func TestInsertErrors(t *testing.T) {
	db := fullDB(t, 2, 1, 1)
	cfg := chainCfg(2)
	l := NewLoader(emptyPDB(t, db, cfg), cfg)
	if err := l.Insert("nope", value.Tuple{1}); err == nil {
		t.Fatal("unknown table must error")
	}
	if err := l.Insert("customer", value.Tuple{1}); err == nil {
		t.Fatal("bad arity must error")
	}
}

func TestDeleteFansOut(t *testing.T) {
	db := fullDB(t, 6, 2, 4)
	cfg := chainCfg(3)
	pdb := emptyPDB(t, db, cfg)
	l := NewLoader(pdb, cfg)
	if _, err := l.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	before := pdb.Tables["customer"].StoredRows()
	removed, err := l.Delete("customer", []string{"custkey"}, value.Tuple{3})
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("expected copies removed")
	}
	if got := pdb.Tables["customer"].StoredRows(); got != before-removed {
		t.Fatalf("stored = %d, want %d", got, before-removed)
	}
	for _, p := range pdb.Tables["customer"].Parts {
		for _, r := range p.Rows() {
			if r[0] == 3 {
				t.Fatal("customer 3 should be gone from every partition")
			}
		}
	}
	if pdb.Tables["customer"].OriginalRows != 5 {
		t.Fatalf("original rows = %d, want 5", pdb.Tables["customer"].OriginalRows)
	}
}

func TestUpdateRules(t *testing.T) {
	db := fullDB(t, 4, 1, 2)
	cfg := chainCfg(2)
	pdb := emptyPDB(t, db, cfg)
	l := NewLoader(pdb, cfg)
	if _, err := l.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	// Non-key attribute: allowed, applied to all copies.
	n, err := l.Update("customer", []string{"custkey"}, value.Tuple{2}, "nation", 99)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no copies updated")
	}
	for _, p := range pdb.Tables["customer"].Parts {
		for _, r := range p.Rows() {
			if r[0] == 2 && r[1] != 99 {
				t.Fatal("a copy was not updated")
			}
		}
	}
	// Partitioning predicate columns are immutable: customer.custkey is
	// the referencing column of its own PREF scheme…
	if _, err := l.Update("customer", []string{"custkey"}, value.Tuple{2}, "custkey", 7); err == nil {
		t.Fatal("updating a referencing column must be rejected")
	}
	// …and orders.custkey is referenced by customer's scheme.
	if _, err := l.Update("orders", []string{"orderkey"}, value.Tuple{0}, "custkey", 7); err == nil {
		t.Fatal("updating a referenced column must be rejected")
	}
	// lineitem.linekey is a hash partitioning column.
	if _, err := l.Update("lineitem", []string{"linekey"}, value.Tuple{0}, "linekey", 7); err == nil {
		t.Fatal("updating a hash column must be rejected")
	}
}

func TestReplicatedAndRoundRobinInsert(t *testing.T) {
	s := schemaCOL(t)
	cfg := partition.NewConfig(3)
	cfg.SetReplicated("customer")
	cfg.Set(&partition.TableScheme{Table: "orders", Method: partition.RoundRobin})
	cfg.SetHash("lineitem", "linekey")
	db := table.NewDatabase(s)
	pdb := emptyPDB(t, db, cfg)
	l := NewLoader(pdb, cfg)

	if err := l.Insert("customer", value.Tuple{1, 0}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if pdb.Tables["customer"].Parts[p].Len() != 1 {
			t.Fatal("replicated insert must hit every partition")
		}
	}
	for i := int64(0); i < 6; i++ {
		if err := l.Insert("orders", value.Tuple{i, 1}); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 3; p++ {
		if pdb.Tables["orders"].Parts[p].Len() != 2 {
			t.Fatal("round robin insert must spread evenly")
		}
	}
}

// mixedOp returns the i'th op batch of a deterministic mixed write
// stream over the fullDB(8,2,2) chain: partnered inserts into orders and
// customer, fresh-key lineitem inserts, leaf deletes, and non-key
// updates.
func mixedOp(i int) []Op {
	switch {
	case i%7 == 3:
		return []Op{Update("customer", []string{"custkey"}, value.Tuple{int64(i % 8)}, "nation", int64(i))}
	case i%11 == 5:
		return []Op{Delete("customer", []string{"custkey"}, value.Tuple{int64((i * 3) % 8)})}
	case i%3 == 0:
		return []Op{Insert("orders", value.Tuple{int64(1000 + i), int64(i % 16)})}
	case i%3 == 1:
		return []Op{Insert("customer", value.Tuple{int64(100 + i), int64(i % 8)})}
	default:
		return []Op{
			Insert("lineitem", value.Tuple{int64(2000 + i), int64(3000 + i)}),
			Insert("lineitem", value.Tuple{int64(2500 + i), int64(3000 + i)}),
		}
	}
}

// A crash-injected loader, after recovering every crashed batch, must
// end in exactly the state a crash-free loader reaches on the same
// logical stream: same epochs, same rows, same bitmaps, same cursors.
func TestCrashedBatchesRecoverToOracle(t *testing.T) {
	db := fullDB(t, 8, 2, 2)
	cfg := chainCfg(3)

	pdb := emptyPDB(t, db, cfg)
	l := NewLoader(pdb, cfg)
	if _, err := l.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	opdb := emptyPDB(t, db, cfg)
	ol := NewLoader(opdb, cfg)
	if _, err := ol.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}

	l.Faults = fault.NewInjector(fault.Policy{Seed: 21, WriteCrashProb: 0.6, WriteIndexRaceProb: 0.3})
	recoveries := 0
	for i := 0; i < 60; i++ {
		ops := mixedOp(i)
		if _, err := ol.Apply(ops...); err != nil {
			t.Fatalf("oracle op %d: %v", i, err)
		}
		_, err := l.Apply(ops...)
		if err == nil {
			continue
		}
		if !errors.Is(err, fault.ErrWriteCrashed) {
			t.Fatalf("op %d: %v", i, err)
		}
		if !l.NeedsRecovery() {
			t.Fatal("crashed loader must need recovery")
		}
		if _, err := l.Apply(ops...); !errors.Is(err, ErrNeedRecovery) {
			t.Fatalf("writes after a crash must be gated, got %v", err)
		}
		rep, err := l.Recover()
		if err != nil {
			t.Fatalf("recover after op %d: %v", i, err)
		}
		if rep.Pending != 1 || rep.Replayed != 1 {
			t.Fatalf("recovery report %+v, want one pending intent replayed", rep)
		}
		recoveries++
	}
	if recoveries == 0 || l.Metrics.Crashes == 0 {
		t.Fatal("fault schedule never crashed a write; test is vacuous")
	}
	if l.Metrics.Replays != int64(recoveries) {
		t.Fatalf("replays = %d, want %d", l.Metrics.Replays, recoveries)
	}

	if le, oe := pdb.Epoch(), opdb.Epoch(); le != oe {
		t.Fatalf("epoch %d after recovery, oracle %d", le, oe)
	}
	for _, tbl := range []string{"lineitem", "orders", "customer"} {
		a, b := opdb.Tables[tbl], pdb.Tables[tbl]
		if a.OriginalRows != b.OriginalRows {
			t.Fatalf("%s: original rows %d vs oracle %d", tbl, b.OriginalRows, a.OriginalRows)
		}
		for p := range a.Parts {
			if err := b.Parts[p].CheckInvariants(); err != nil {
				t.Fatalf("%s[%d]: %v", tbl, p, err)
			}
			if !sameRowMultiset(a.Parts[p].Rows(), b.Parts[p].Rows()) {
				t.Fatalf("%s partition %d differs from oracle", tbl, p)
			}
			if indexCounts(a.Parts[p]) != indexCounts(b.Parts[p]) {
				t.Fatalf("%s partition %d index columns differ from oracle", tbl, p)
			}
		}
	}
	if l.Metrics.Amplification() < 1 {
		t.Fatalf("amplification %v < 1 on a PREF load", l.Metrics.Amplification())
	}
}

// Snapshots pinned before a crashed batch must keep reading the old
// epoch, untouched and invariant-clean, while the head is torn; after
// Recover the batch becomes visible in new snapshots exactly once.
func TestSnapshotIsolationAcrossCrash(t *testing.T) {
	db := fullDB(t, 4, 2, 2)
	cfg := chainCfg(2)
	pdb := emptyPDB(t, db, cfg)
	l := NewLoader(pdb, cfg)
	if _, err := l.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}

	pre := pdb.Snapshot()
	preRows := pre.Parts("orders")[0].Len() + pre.Parts("orders")[1].Len()

	l.Faults = fault.NewInjector(fault.Policy{Seed: 3, WriteCrashProb: 1})
	_, err := l.Apply(Insert("orders", value.Tuple{555, 0}))
	if !errors.Is(err, fault.ErrWriteCrashed) {
		t.Fatalf("want injected crash, got %v", err)
	}

	mid := pdb.Snapshot()
	if mid.Epoch != pre.Epoch {
		t.Fatal("crashed batch must not publish an epoch")
	}
	for p, part := range mid.Parts("orders") {
		if err := part.CheckInvariants(); err != nil {
			t.Fatalf("snapshot orders[%d] torn: %v", p, err)
		}
	}
	if got := mid.Parts("orders")[0].Len() + mid.Parts("orders")[1].Len(); got != preRows {
		t.Fatalf("snapshot sees %d order rows mid-crash, want %d", got, preRows)
	}

	l.Faults = nil
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	post := pdb.Snapshot()
	if post.Epoch != pre.Epoch+1 {
		t.Fatalf("post-recovery epoch %d, want %d", post.Epoch, pre.Epoch+1)
	}
	found := 0
	for _, part := range post.Parts("orders") {
		if err := part.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, r := range part.Rows() {
			if r[0] == 555 {
				found++
			}
		}
	}
	if found == 0 {
		t.Fatal("recovered insert missing from the new epoch")
	}
}

// Dup bits must be assigned fresh on re-insert of a previously deleted
// key: exactly one primary copy per logical tuple per epoch, however
// many times the key has lived before (the old firstSeen cache went
// stale after Delete).
func TestInsertDeleteReinsertDupBits(t *testing.T) {
	db := table.NewDatabase(schemaCOL(t))
	cfg := chainCfg(2)
	pdb := emptyPDB(t, db, cfg)
	l := NewLoader(pdb, cfg)

	for lk := int64(0); lk < 4; lk++ {
		if err := l.Insert("lineitem", value.Tuple{lk, 7}); err != nil {
			t.Fatal(err)
		}
	}
	partner := map[int]bool{}
	for p, part := range pdb.Tables["lineitem"].Parts {
		for _, r := range part.Rows() {
			if r[1] == 7 {
				partner[p] = true
			}
		}
	}
	if len(partner) < 2 {
		t.Fatalf("setup: want orderkey 7 on >=2 partitions, got %d", len(partner))
	}

	countOrder7 := func() (copies, primaries, dups int) {
		for _, part := range pdb.Tables["orders"].Parts {
			for i, r := range part.Rows() {
				if r[0] == 7 {
					copies++
					if part.Dup(i) {
						dups++
					} else {
						primaries++
					}
					if !part.HasRef(i) {
						t.Fatal("partnered copy must have hasRef=1")
					}
				}
			}
		}
		return
	}

	if err := l.Insert("orders", value.Tuple{7, 0}); err != nil {
		t.Fatal(err)
	}
	c1, p1, d1 := countOrder7()
	if c1 != len(partner) || p1 != 1 || d1 != c1-1 {
		t.Fatalf("first insert: copies=%d primaries=%d dups=%d, want %d/1/%d", c1, p1, d1, len(partner), len(partner)-1)
	}

	removed, err := l.Delete("orders", []string{"orderkey"}, value.Tuple{7})
	if err != nil {
		t.Fatal(err)
	}
	if removed != c1 {
		t.Fatalf("delete removed %d copies, want %d", removed, c1)
	}

	if err := l.Insert("orders", value.Tuple{7, 1}); err != nil {
		t.Fatal(err)
	}
	c2, p2, d2 := countOrder7()
	if c2 != len(partner) || p2 != 1 || d2 != c2-1 {
		t.Fatalf("re-insert: copies=%d primaries=%d dups=%d, want %d/1/%d", c2, p2, d2, len(partner), len(partner)-1)
	}
	if pdb.Tables["orders"].OriginalRows != 1 {
		t.Fatalf("orders OriginalRows = %d, want 1", pdb.Tables["orders"].OriginalRows)
	}
}

// Seed-partitioning columns are immutable even when they reach the table
// only through the hash-equivalence chain, not its own predicate.
func TestUpdateRejectsSeedPartitioningColumns(t *testing.T) {
	s := schemaCOL(t)
	cfg := partition.NewConfig(2)
	cfg.SetHash("lineitem", "orderkey")
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	db := table.NewDatabase(s)
	db.Tables["lineitem"].MustAppend(value.Tuple{1, 1})
	db.Tables["orders"].MustAppend(value.Tuple{1, 2})
	db.Tables["customer"].MustAppend(value.Tuple{2, 0})
	pdb := emptyPDB(t, db, cfg)
	l := NewLoader(pdb, cfg)
	if _, err := l.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}

	if mapped, ok := cfg.HashEquivalent("orders"); !ok || len(mapped) == 0 {
		t.Fatal("setup: orders should be hash-equivalent")
	}
	// orders.orderkey decides hash-equivalent placement (mapped from the
	// seed's hash column): immutable.
	if _, err := l.Update("orders", []string{"custkey"}, value.Tuple{2}, "orderkey", 9); err == nil {
		t.Fatal("updating a seed-mapped placement column must be rejected")
	}
	// The seed's own hash column, on the seed table: immutable.
	if _, err := l.Update("lineitem", []string{"linekey"}, value.Tuple{1}, "orderkey", 9); err == nil {
		t.Fatal("updating the seed hash column must be rejected")
	}
	// Non-placement columns stay writable.
	if _, err := l.Update("customer", []string{"custkey"}, value.Tuple{2}, "nation", 9); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Update("lineitem", []string{"orderkey"}, value.Tuple{1}, "linekey", 9); err != nil {
		t.Fatal(err)
	}
}

// Deleting referenced-side tuples whose keys are still in use by a PREF
// predicate is rejected — the loader does not re-place referencing
// copies downward. Unreferenced keys delete fine.
func TestDeleteRejectedWhileReferenced(t *testing.T) {
	db := fullDB(t, 2, 2, 2)
	cfg := chainCfg(2)
	pdb := emptyPDB(t, db, cfg)
	l := NewLoader(pdb, cfg)
	if _, err := l.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}

	if _, err := l.Delete("lineitem", []string{"linekey"}, value.Tuple{0}); err == nil {
		t.Fatal("deleting a referenced lineitem key must be rejected")
	}
	if err := l.Insert("lineitem", value.Tuple{500, 999}); err != nil {
		t.Fatal(err)
	}
	if n, err := l.Delete("lineitem", []string{"linekey"}, value.Tuple{500}); err != nil || n != 1 {
		t.Fatalf("unreferenced delete: n=%d err=%v", n, err)
	}
	// Peel the chain from the leaf: customer 0 releases custkey 0, the
	// orders release orderkey 0, and only then may the lineitems go.
	if _, err := l.Delete("customer", []string{"custkey"}, value.Tuple{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Delete("orders", []string{"custkey"}, value.Tuple{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Delete("lineitem", []string{"orderkey"}, value.Tuple{0}); err != nil {
		t.Fatalf("delete after dereferencing: %v", err)
	}
}

func TestApplyBatchValidation(t *testing.T) {
	db := fullDB(t, 2, 1, 1)
	cfg := chainCfg(2)
	l := NewLoader(emptyPDB(t, db, cfg), cfg)

	if _, err := l.Apply(Insert("customer", value.Tuple{1, 0}), Insert("orders", value.Tuple{1, 1})); err == nil {
		t.Fatal("multi-table batch must be rejected")
	}
	if _, err := l.Apply(
		Delete("customer", []string{"custkey"}, value.Tuple{1}),
		Delete("customer", []string{"custkey"}, value.Tuple{2}),
	); err == nil {
		t.Fatal("multi-op delete batch must be rejected")
	}
	c, err := l.Apply()
	if err != nil || c.Epoch != 0 {
		t.Fatalf("empty batch: %+v, %v", c, err)
	}
}

// The intent journal stays bounded: applied intents are pruned at
// commit, pending intents survive a crash until Recover drains them.
func TestIntentLogLifecycle(t *testing.T) {
	db := fullDB(t, 2, 1, 1)
	cfg := chainCfg(2)
	pdb := emptyPDB(t, db, cfg)
	l := NewLoader(pdb, cfg)
	if _, err := l.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	if l.Log().Len() != 0 {
		t.Fatalf("journal holds %d applied intents, want 0 after prune", l.Log().Len())
	}

	l.Faults = fault.NewInjector(fault.Policy{Seed: 3, WriteCrashProb: 1})
	if _, err := l.Apply(Insert("customer", value.Tuple{50, 1})); !errors.Is(err, fault.ErrWriteCrashed) {
		t.Fatalf("want crash, got %v", err)
	}
	if got := len(l.Log().Pending()); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	l.Faults = nil
	rep, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 1 || len(l.Log().Pending()) != 0 || l.NeedsRecovery() {
		t.Fatalf("journal not drained: %+v", rep)
	}
	// Recover with nothing pending is a no-op.
	if rep, err := l.Recover(); err != nil || rep.Pending != 0 || rep.Replayed != 0 {
		t.Fatalf("idle recover: %+v, %v", rep, err)
	}
}
