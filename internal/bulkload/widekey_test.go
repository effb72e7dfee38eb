package bulkload

import (
	"reflect"
	"testing"

	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/partition"
	"pref/internal/stats"
	"pref/internal/table"
	"pref/internal/value"
)

// TestWideKeyPref runs a three-column PREF predicate through the load
// path. Three columns are wider than a value.Key2, so the partition index
// and the histograms key on value.Key. The path is partition.Apply,
// check.VerifyStore, a Loader insert with and without the partition
// index, and the histograms of both sides. Every child row must be stored
// on exactly the partitions holding a parent with its key, as a plain
// scan finds them, or once if it has none.
func TestWideKeyPref(t *testing.T) {
	intCols := func(names ...string) []catalog.Column {
		out := make([]catalog.Column, len(names))
		for i, n := range names {
			out[i] = catalog.Column{Name: n, Kind: value.Int}
		}
		return out
	}
	s := catalog.NewSchema("wide")
	s.MustAddTable(catalog.MustTable("parent", intCols("id", "a", "b", "c"), "id"))
	s.MustAddTable(catalog.MustTable("child", intCols("cid", "a", "b", "c"), "cid"))
	key := []string{"a", "b", "c"}
	cfg := partition.NewConfig(4).SetHash("parent", "id")
	cfg.SetPref("child", "parent", key, key)

	// Key k is (k%3, k/3, k%2). The 60 parents hold keys 0..11, five each
	// under consecutive ids that hash apart; the 40 children hold keys
	// 0..15, so keys 12..15 are orphans.
	db := table.NewDatabase(s)
	for id := int64(0); id < 60; id++ {
		k := id / 5
		db.Tables["parent"].MustAppend(value.Tuple{id, k % 3, k / 3, k % 2})
	}
	for cid := int64(0); cid < 40; cid++ {
		k := cid % 16
		db.Tables["child"].MustAppend(value.Tuple{cid, k % 3, k / 3, k % 2})
	}

	// holders lists the partitions storing a parent with row's key.
	holders := func(pdb *table.PartitionedDatabase, row value.Tuple) []int {
		var out []int
		for p, part := range pdb.Tables["parent"].Parts {
			for _, r := range part.Rows() {
				if r[1] == row[1] && r[2] == row[2] && r[3] == row[3] {
					out = append(out, p)
					break
				}
			}
		}
		return out
	}
	// placedOn lists the partitions storing a copy of child cid.
	placedOn := func(pdb *table.PartitionedDatabase, cid int64) []int {
		var out []int
		for p, part := range pdb.Tables["child"].Parts {
			for _, r := range part.Rows() {
				if r[0] == cid {
					out = append(out, p)
				}
			}
		}
		return out
	}
	placedRight := func(pdb *table.PartitionedDatabase, row value.Tuple) bool {
		got, want := placedOn(pdb, row[0]), holders(pdb, row)
		if len(want) == 0 {
			return len(got) == 1
		}
		return reflect.DeepEqual(got, want)
	}

	for _, useIndex := range []bool{true, false} {
		pdb, err := partition.Apply(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dups := 0
		for _, row := range db.Tables["child"].Rows {
			if !placedRight(pdb, row) {
				t.Fatalf("child %v stored on %v, parents on %v", row, placedOn(pdb, row[0]), holders(pdb, row))
			}
			dups += len(placedOn(pdb, row[0])) - 1
		}
		if dups == 0 {
			t.Fatal("no child is duplicated: the fixture exercises no multi-partition key")
		}
		l := NewLoader(pdb, cfg)
		l.UsePartitionIndex = useIndex
		inserted := []value.Tuple{{100, 2, 1, 1}, {101, 0, 9, 0}} // key 5 and an orphan
		for _, row := range inserted {
			if err := l.Insert("child", row); err != nil {
				t.Fatal(err)
			}
			if !placedRight(pdb, row) {
				t.Fatalf("index %v: inserted child %v stored on %v, parents on %v",
					useIndex, row, placedOn(pdb, row[0]), holders(pdb, row))
			}
		}
		if err := check.VerifyStore(pdb, cfg); err != nil {
			t.Fatalf("index %v: %v", useIndex, err)
		}
	}

	// Histograms: five parents per key; the children's keys 0..7 appear
	// three times (cid k, k+16, k+32 below 40), 8..15 twice.
	ph, err := stats.BuildHistogram(db.Tables["parent"], key...)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := stats.BuildHistogram(db.Tables["child"], key...)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Distinct() != 12 || ch.Distinct() != 16 {
		t.Fatalf("distinct keys %d / %d, want 12 / 16", ph.Distinct(), ch.Distinct())
	}
	var pairs [][2]int
	ph.Join(ch, func(f, g int) { pairs = append(pairs, [2]int{f, g}) })
	var want [][2]int
	for k := 0; k < 12; k++ {
		g := 2
		if k < 8 {
			g = 3
		}
		want = append(want, [2]int{5, g})
	}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("joined frequencies %v, want %v", pairs, want)
	}
}
