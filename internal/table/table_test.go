package table

import (
	"slices"
	"sync"
	"testing"

	"pref/internal/catalog"
	"pref/internal/value"
)

func meta(t *testing.T) *catalog.Table {
	t.Helper()
	return catalog.MustTable("t", []catalog.Column{{Name: "a", Kind: value.Int}, {Name: "b", Kind: value.Int}}, "a")
}

func TestDataAppend(t *testing.T) {
	d := NewData(meta(t))
	if err := d.Append(value.Tuple{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(value.Tuple{1}); err == nil {
		t.Fatal("arity mismatch must error")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestPartitionBitmaps(t *testing.T) {
	p := NewPartition(2)
	p.Append(value.Tuple{1, 10}, false, true)
	p.Append(value.Tuple{1, 10}, true, true)
	p.Append(value.Tuple{2, 20}, false, false)
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	if !p.Dup(1) || p.Dup(0) || p.Dup(2) {
		t.Fatal("dup bits wrong")
	}
	if !p.HasRef(0) || !p.HasRef(1) || p.HasRef(2) {
		t.Fatal("hasRef bits wrong")
	}
}

func TestPartitionedCounts(t *testing.T) {
	pt := NewPartitioned(meta(t), 3)
	pt.OriginalRows = 2
	pt.Parts[0].Append(value.Tuple{1, 10}, false, true)
	pt.Parts[1].Append(value.Tuple{1, 10}, true, true)
	pt.Parts[2].Append(value.Tuple{2, 20}, false, true)
	if pt.StoredRows() != 3 {
		t.Fatalf("StoredRows = %d", pt.StoredRows())
	}
	if pt.DuplicateRows() != 1 {
		t.Fatalf("DuplicateRows = %d", pt.DuplicateRows())
	}
	if got := pt.Redundancy(); got != 0.5 {
		t.Fatalf("Redundancy = %v, want 0.5", got)
	}
}

func TestRedundancyZeroOriginal(t *testing.T) {
	pt := NewPartitioned(meta(t), 2)
	if pt.Redundancy() != 0 {
		t.Fatal("empty table redundancy should be 0")
	}
}

func TestDatabaseRedundancy(t *testing.T) {
	s := catalog.NewSchema("s")
	m := catalog.MustTable("t", []catalog.Column{{Name: "a", Kind: value.Int}}, "a")
	s.MustAddTable(m)
	db := NewDatabase(s)
	if db.Tables["t"] == nil {
		t.Fatal("database should pre-create table data")
	}
	db.Tables["t"].MustAppend(value.Tuple{1})
	db.Tables["t"].MustAppend(value.Tuple{2})
	if db.TotalRows() != 2 {
		t.Fatalf("TotalRows = %d", db.TotalRows())
	}

	pdb := &PartitionedDatabase{Schema: s, Tables: map[string]*Partitioned{}, N: 2}
	pt := NewPartitioned(m, 2)
	pt.OriginalRows = 2
	pt.Parts[0].Append(value.Tuple{1}, false, true)
	pt.Parts[1].Append(value.Tuple{1}, true, true)
	pt.Parts[1].Append(value.Tuple{2}, false, true)
	pt.Parts[0].Append(value.Tuple{2}, true, true)
	pdb.Tables["t"] = pt
	if pdb.TotalStoredRows() != 4 {
		t.Fatalf("TotalStoredRows = %d", pdb.TotalStoredRows())
	}
	if got := pdb.DataRedundancy(); got != 1.0 {
		t.Fatalf("DataRedundancy = %v, want 1.0 (each tuple stored twice)", got)
	}
}

func TestCheckInvariants(t *testing.T) {
	p := NewPartition(2)
	p.Append(value.Tuple{1, 10}, false, true)
	p.Append(value.Tuple{2, 20}, true, false)
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("intact partition: %v", err)
	}
	// A torn write: row appended without its index entries.
	p.AppendTorn(value.Tuple{3, 30})
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("torn partition must fail CheckInvariants")
	}
	if err := (&Partition{}).CheckInvariants(); err == nil {
		t.Fatal("a partition without columns must fail CheckInvariants")
	}
}

func TestSnapshotPinsEpoch(t *testing.T) {
	pt := NewPartitioned(meta(t), 2)
	pt.Parts[0].Append(value.Tuple{1, 10}, false, false)
	pt.Parts[1].Append(value.Tuple{1, 10}, true, false) // a duplicate copy
	pt.OriginalRows = 1

	v0 := pt.Snapshot()
	if v0.Epoch != 0 || len(v0.Parts) != 2 || v0.Parts[0].Len() != 1 || v0.Rows != 1 {
		t.Fatalf("epoch 0 snapshot wrong: %+v", v0)
	}
	if pt.Snapshot() != v0 {
		t.Fatal("repeated Snapshot must return the same pinned version")
	}

	// Copy-on-write: mutating through BeginWrite must not disturb v0.
	part := pt.BeginWrite(0)
	if part == v0.Parts[0] {
		t.Fatal("BeginWrite returned the published partition object")
	}
	part.Append(value.Tuple{2, 20}, false, false)
	pt.OriginalRows++
	if v0.Parts[0].Len() != 1 {
		t.Fatal("published epoch mutated by a head write")
	}
	// Unpublished head mutations are invisible until Publish.
	if pt.Snapshot().Parts[0].Len() != 1 {
		t.Fatal("snapshot observed unpublished head state")
	}

	if e := pt.Publish(); e != 1 {
		t.Fatalf("Publish epoch = %d, want 1", e)
	}
	v1 := pt.Snapshot()
	if v1.Epoch != 1 || v1.Parts[0].Len() != 2 || v1.Rows != 2 {
		t.Fatalf("epoch 1 snapshot wrong: %+v", v1)
	}
	if v0.Parts[0].Len() != 1 || v0.Epoch != 0 {
		t.Fatal("old pinned version changed after Publish")
	}
	// BeginWrite on the same partition clones again (it is v1's pointer),
	// once per epoch: a second call returns the same clone.
	c := pt.BeginWrite(0)
	if c == v1.Parts[0] {
		t.Fatal("post-publish BeginWrite must clone the published partition")
	}
	if pt.BeginWrite(0) != c {
		t.Fatal("a second BeginWrite in one epoch must return the same clone")
	}
	c.Append(value.Tuple{3, 30}, false, false)
	// Rollback counts the clone's rows only, not partition 1's published
	// row, and leaves every head partition the published pointer again.
	if d := pt.ResetToPublished(); d != 3 {
		t.Fatalf("ResetToPublished discarded %d rows, want the clone's 3", d)
	}
	for p := range pt.Parts {
		if pt.Parts[p] != v1.Parts[p] {
			t.Fatalf("head partition %d is not the published pointer after the reset", p)
		}
	}
}

func TestResetToPublishedRepairsTornHead(t *testing.T) {
	pt := NewPartitioned(meta(t), 2)
	pt.Parts[0].Append(value.Tuple{1, 10}, false, false)
	pt.OriginalRows = 1
	pt.Snapshot() // anchor epoch 0

	// Tear the head: one partition gets a row without index entries, the
	// other a fully applied row — a mid-fan-out crash.
	p0 := pt.BeginWrite(0)
	p0.AppendTorn(value.Tuple{9, 90})
	p1 := pt.BeginWrite(1)
	p1.Append(value.Tuple{8, 80}, false, false)
	pt.OriginalRows = 7
	if p0.CheckInvariants() == nil {
		t.Fatal("setup: head should be torn")
	}

	if discarded := pt.ResetToPublished(); discarded != 3 {
		t.Fatalf("discarded = %d, want 3 head rows in diverged partitions", discarded)
	}
	if pt.Parts[0].Len() != 1 || pt.Parts[1].Len() != 0 || pt.OriginalRows != 1 {
		t.Fatal("rollback did not restore the published state")
	}
	for p := range pt.Parts {
		if err := pt.Parts[p].CheckInvariants(); err != nil {
			t.Fatalf("partition %d after rollback: %v", p, err)
		}
	}
}

func TestDatabaseCommitIsAtomic(t *testing.T) {
	s := catalog.NewSchema("s")
	m := catalog.MustTable("t", []catalog.Column{{Name: "a", Kind: value.Int}}, "a")
	s.MustAddTable(m)
	pdb := &PartitionedDatabase{Schema: s, Tables: map[string]*Partitioned{}, N: 2}
	pdb.Tables["t"] = NewPartitioned(m, 2)

	s0 := pdb.Snapshot()
	if s0.Epoch != 0 || s0.Tables["t"] == nil {
		t.Fatalf("initial snapshot wrong: %+v", s0)
	}
	pdb.Tables["t"].BeginWrite(0).Append(value.Tuple{1}, false, false)
	if e := pdb.Commit("t"); e != 1 {
		t.Fatalf("Commit epoch = %d, want 1", e)
	}
	s1 := pdb.Snapshot()
	if s1.Epoch != 1 || s1.Parts("t")[0].Len() != 1 {
		t.Fatal("snapshot after commit missing the published write")
	}
	if s0.Parts("t")[0].Len() != 0 {
		t.Fatal("pre-commit snapshot observed the write")
	}
	if s0.Parts("missing") != nil {
		t.Fatal("Parts of unknown table must be nil")
	}
}

// TestKeyIndexDescribesItsColumns: a partition builds a column's key index
// once, however many readers ask at once; a clone starts without it, and
// every in-place mutator drops it, so the next reader indexes the columns as
// they are.
func TestKeyIndexDescribesItsColumns(t *testing.T) {
	builds := 0
	index := func(p *Partition) []int64 {
		return p.KeyIndex(0, func(col []int64) any {
			builds++
			return append([]int64(nil), col...)
		}).([]int64)
	}
	p := NewPartition(2)
	p.Append(value.Tuple{1, 10}, false, false)
	p.Append(value.Tuple{2, 20}, false, false)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			index(p)
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("8 concurrent readers built the index %d times, want once", builds)
	}

	c := p.Clone()
	c.Append(value.Tuple{3, 30}, false, false)
	if got := index(c); len(got) != 3 || builds != 2 {
		t.Fatalf("the written clone reads index %v after %d builds, want its 3 rows from a second", got, builds)
	}
	if got := index(p); len(got) != 2 || builds != 2 {
		t.Fatalf("the published partition reads index %v after %d builds, want its own 2 rows", got, builds)
	}

	for name, write := range map[string]func(*Partition){
		"Extend":     func(p *Partition) { p.Extend(1) },
		"Append":     func(p *Partition) { p.Append(value.Tuple{4, 40}, false, false) },
		"AppendTorn": func(p *Partition) { p.AppendTorn(value.Tuple{4, 40}) },
		"Writable":   func(p *Partition) { p.Writable(0)[0] = 9 },
		"Delete":     func(p *Partition) { p.Delete([]int{0}) },
	} {
		q := p.Clone()
		before := index(q)
		write(q)
		if after := index(q); slices.Equal(after, before) || !slices.Equal(after, q.Columns(2).Cols[0]) {
			t.Errorf("%s: index %v after the write, %v before; the column reads %v",
				name, after, before, q.Columns(2).Cols[0])
		}
	}
}

// TestPrefixKeyIndexKeepsLeadingRows: a clone and an appended partition hand
// out the index their leading rows already have, and how many rows it
// covers, until the rows after it outnumber an eighth of them; a rewrite
// or a delete drops it, and the published partition keeps its own.
func TestPrefixKeyIndexKeepsLeadingRows(t *testing.T) {
	builds := 0
	build := func(col []int64) any { builds++; return slices.Clone(col) }
	prefix := func(p *Partition) ([]int64, int) {
		v, rows := p.PrefixKeyIndex(0, build)
		return v.([]int64), rows
	}
	p := NewPartition(1)
	for i := range int64(16) {
		p.Append(value.Tuple{i}, false, false)
	}
	if _, rows := prefix(p); rows != 16 || builds != 1 {
		t.Fatalf("a partition with no index: %d rows indexed after %d builds, want 16 after 1", rows, builds)
	}
	c := p.Clone()
	c.Append(value.Tuple{16}, false, false)
	c.Append(value.Tuple{17}, false, false)
	if got, rows := prefix(c); rows != 16 || len(got) != 16 || builds != 1 {
		t.Fatalf("a clone with 2 appended rows: index of %d rows covering %d after %d builds, want the origin's 16 after 1", len(got), rows, builds)
	}
	c.Append(value.Tuple{18}, false, false)
	if _, rows := prefix(c); rows != 19 || builds != 2 {
		t.Fatalf("3 unindexed rows of 16: %d rows indexed after %d builds, want all 19 after 2", rows, builds)
	}
	if _, rows := prefix(p.Clone()); rows != 16 || builds != 2 {
		t.Fatalf("the published partition: %d rows indexed after %d builds, want its own 16", rows, builds)
	}
	for name, write := range map[string]func(*Partition){
		"Writable": func(p *Partition) { p.Writable(0)[0] = 9 },
		"Delete":   func(p *Partition) { p.Delete([]int{0}) },
	} {
		q := p.Clone()
		before := builds
		write(q)
		if got, rows := prefix(q); rows != q.Len() || !slices.Equal(got, q.Columns(1).Cols[0]) || builds != before+1 {
			t.Errorf("%s: index %v of %d rows after %d builds; the column reads %v", name, got, rows, builds-before, q.Columns(1).Cols[0])
		}
	}
}
