package table_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/table"
	"pref/internal/value"
)

// copiesDB is a three-table chain small enough to brute-force: 12
// customers, 40 orders over 10 of them, 120 lineitems.
func copiesDB() *table.Database {
	s := catalog.NewSchema("c")
	s.MustAddTable(catalog.MustTable("customer",
		[]catalog.Column{{Name: "custkey", Kind: value.Int}, {Name: "seg", Kind: value.Int}}, "custkey"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "custkey", Kind: value.Int}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}, {Name: "qty", Kind: value.Int}}, "linekey"))
	db := table.NewDatabase(s)
	for i := int64(0); i < 12; i++ {
		db.Tables["customer"].MustAppend(value.Tuple{i, i % 3})
	}
	for i := int64(0); i < 40; i++ {
		db.Tables["orders"].MustAppend(value.Tuple{i, i % 10})
	}
	for i := int64(0); i < 120; i++ {
		db.Tables["lineitem"].MustAppend(value.Tuple{i, i % 40, i % 7})
	}
	return db
}

// copiesDesigns are the three redundancy regimes: PREF duplicates, none,
// and full replication.
func copiesDesigns(n int) map[string]*partition.Config {
	chain := partition.NewConfig(n)
	chain.SetHash("lineitem", "linekey")
	chain.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	chain.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})

	hashed := partition.NewConfig(n)
	hashed.SetHash("lineitem", "linekey").SetHash("orders", "orderkey").SetHash("customer", "custkey")

	repl := partition.NewConfig(n)
	repl.SetHash("lineitem", "linekey").SetHash("orders", "orderkey").SetReplicated("customer")

	return map[string]*partition.Config{"pref-chain": chain, "all-hashed": hashed, "replicated": repl}
}

// missingByDefinition is the definition Copies replaces, brute force: a row
// of partition p survives a down set iff an identical full row is stored on
// some partition outside it.
func missingByDefinition(parts []*table.Partition, p int, down []bool) int {
	missing := 0
	for _, r := range parts[p].Rows() {
		found := false
		for q, other := range parts {
			if down[q] {
				continue
			}
			for _, s := range other.Rows() {
				if reflect.DeepEqual(r, s) {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			missing++
		}
	}
	return missing
}

func aliveSet(down []bool) table.PartSet {
	alive := table.NewPartSet(len(down))
	for q, d := range down {
		if !d {
			alive.Add(q)
		}
	}
	return alive
}

// checkAgainstDefinition compares Missing with the brute-force definition
// for every partition of v under one down set, and Holders row by row.
func checkAgainstDefinition(t *testing.T, tag string, v *table.Version, ci *table.CopyIndex, down []bool) {
	t.Helper()
	alive := aliveSet(down)
	for p := range v.Parts {
		if got, want := ci.Missing(p, alive), missingByDefinition(v.Parts, p, down); got != want {
			t.Fatalf("%s down=%v partition %d: Missing = %d, definition says %d", tag, down, p, got, want)
		}
		for i, r := range v.Parts[p].Rows() {
			holders := ci.Holders(p, i)
			for q, other := range v.Parts {
				stored := false
				for _, s := range other.Rows() {
					if reflect.DeepEqual(r, s) {
						stored = true
						break
					}
				}
				if holders.Has(q) != stored {
					t.Fatalf("%s partition %d row %d %v: Holders.Has(%d) = %v, stored there = %v",
						tag, p, i, r, q, holders.Has(q), stored)
				}
			}
		}
	}
}

// TestCopiesAgreeWithDefinition: on a PREF chain, an all-hashed and a
// replicated design, the copy index answers "does this row survive this
// down set" exactly as a sweep of the surviving partitions would, for every
// single-node loss and a seeded sample of multi-node losses.
func TestCopiesAgreeWithDefinition(t *testing.T) {
	const n = 5
	db := copiesDB()
	rng := rand.New(rand.NewSource(7))
	for name, cfg := range copiesDesigns(n) {
		pdb, err := partition.Apply(db, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap := pdb.Snapshot()
		for tbl, v := range snap.Tables {
			ci := v.Copies(pdb.Tables[tbl].Meta.NumCols())
			tag := name + "/" + tbl
			for d := 0; d < n; d++ {
				down := make([]bool, n)
				down[d] = true
				checkAgainstDefinition(t, tag, v, ci, down)
			}
			for i := 0; i < 12; i++ {
				down := make([]bool, n)
				for _, d := range rng.Perm(n)[:2+rng.Intn(n-1)] { // 2..n nodes down
					down[d] = true
				}
				checkAgainstDefinition(t, tag, v, ci, down)
			}
		}
	}
}

// TestCopiesBeyondOneWord: 70 partitions put copies in the second mask
// word; the same code path must see them.
func TestCopiesBeyondOneWord(t *testing.T) {
	const n = 70
	meta := catalog.MustTable("t", []catalog.Column{{Name: "k", Kind: value.Int}, {Name: "v", Kind: value.Int}}, "k")
	pt := table.NewPartitioned(meta, n)
	for k := 0; k < n; k++ {
		row := value.Tuple{int64(k), int64(1000 + k)}
		pt.Parts[k].Append(row, false, false)
		if k%2 == 0 { // even keys have a second copy 35 partitions away
			pt.Parts[(k+35)%n].Append(row, true, false)
		}
	}
	v := pt.Snapshot()
	ci := v.Copies(2)
	for _, lost := range []int{0, 3, 34, 35, 64, 69} {
		down := make([]bool, n)
		down[lost] = true
		checkAgainstDefinition(t, "wide", v, ci, down)
	}
	// Partition 2's own row (k=2) has its only other copy on partition 37.
	if h := ci.Holders(2, 0); !h.Has(2) || !h.Has(37) || h.Has(36) {
		t.Fatalf("Holders(2,0) misses the second word: %v", h)
	}
	down := make([]bool, n)
	down[2], down[37] = true, true
	if got := ci.Missing(2, aliveSet(down)); got != 1 {
		t.Fatalf("both copies of key 2 lost: Missing = %d, want 1", got)
	}
	checkAgainstDefinition(t, "wide", v, ci, down)
}

// TestCopiesLiveAndDieWithTheVersion: the index is built once per published
// version — stable across calls and across a commit of a different table,
// fresh after a commit of its own.
func TestCopiesLiveAndDieWithTheVersion(t *testing.T) {
	pdb, err := partition.Apply(copiesDB(), copiesDesigns(4)["replicated"])
	if err != nil {
		t.Fatal(err)
	}
	width := pdb.Tables["customer"].Meta.NumCols()
	before := pdb.Snapshot().Tables["customer"].Copies(width)
	if again := pdb.Snapshot().Tables["customer"].Copies(width); again != before {
		t.Fatal("a second call on the same version rebuilt the index")
	}

	// A write to orders publishes a new orders version only.
	part := pdb.Tables["orders"].BeginWrite(0)
	part.Append(value.Tuple{900, 1}, false, false)
	pdb.Commit("orders")
	if after := pdb.Snapshot().Tables["customer"].Copies(width); after != before {
		t.Fatal("a commit of orders invalidated customer's index")
	}

	// A write to customer itself publishes a new version with a new index
	// that sees the new row; the old version's index is untouched.
	row := value.Tuple{500, 2}
	for p := range pdb.Tables["customer"].Parts {
		pdb.Tables["customer"].BeginWrite(p).Append(row, p > 0, false)
	}
	old := pdb.Snapshot().Tables["customer"]
	pdb.Commit("customer")
	cur := pdb.Snapshot().Tables["customer"]
	fresh := cur.Copies(width)
	if fresh == before {
		t.Fatal("customer's own commit kept the old index")
	}
	last := cur.Parts[0].Len() - 1
	if h := fresh.Holders(0, last); !h.Has(0) || !h.Has(3) {
		t.Fatalf("new index does not hold the committed row: %v", h)
	}
	if old.Copies(width) != before || old.Parts[0].Len() != last {
		t.Fatal("the pinned old version changed under its reader")
	}
}

// TestCopiesConcurrentFirstCalls: recovery callers arrive together; they
// must all get the one index (run under -race).
func TestCopiesConcurrentFirstCalls(t *testing.T) {
	pdb, err := partition.Apply(copiesDB(), copiesDesigns(4)["pref-chain"])
	if err != nil {
		t.Fatal(err)
	}
	v := pdb.Snapshot().Tables["orders"]
	const callers = 16
	got := make([]*table.CopyIndex, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = v.Copies(2)
			got[i].Missing(0, table.NewPartSet(4))
		}(i)
	}
	close(start)
	wg.Wait()
	for i, ci := range got {
		if ci == nil || ci != got[0] {
			t.Fatalf("caller %d got a different index: concurrent first calls built more than once", i)
		}
	}
}
