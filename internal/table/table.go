// Package table provides in-memory storage: unpartitioned base tables as
// rows (the generator's load format) and partitioned tables whose
// partitions are columns — the table's own, plus the two PREF index columns
// from Section 2 of the paper (dup and hasRef) — kept once and read in place
// by the scan.
package table

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pref/internal/catalog"
	"pref/internal/value"
)

// Data is an unpartitioned table: metadata plus its rows.
type Data struct {
	Meta *catalog.Table
	Rows []value.Tuple
}

// NewData returns an empty table for the given metadata.
func NewData(meta *catalog.Table) *Data {
	return &Data{Meta: meta}
}

// Append adds a row after checking its arity.
func (d *Data) Append(t value.Tuple) error {
	if len(t) != d.Meta.NumCols() {
		return fmt.Errorf("table %s: row arity %d, want %d", d.Meta.Name, len(t), d.Meta.NumCols())
	}
	d.Rows = append(d.Rows, t)
	return nil
}

// MustAppend is Append that panics on error. The panic is reserved for
// the programmer-error invariant of source-literal rows in test fixtures,
// examples, and generators whose arity is fixed by construction; fallible
// ingest paths (bulk loading, external data) must use Append and handle
// the error.
func (d *Data) MustAppend(t value.Tuple) {
	if err := d.Append(t); err != nil {
		// lint:invariant
		panic(err)
	}
}

// Len reports the number of rows.
func (d *Data) Len() int { return len(d.Rows) }

// Partition is one horizontal fragment of a partitioned table, stored
// column-major and stored once: one []int64 per table column in schema
// order, then the two index columns of Section 2.1 as 0/1 vectors. dup
// marks copies beyond a tuple's globally first stored occurrence (so a
// dup=0 filter eliminates exactly the PREF-induced duplicates), hasRef
// marks tuples that have at least one partitioning partner in the
// referenced table (the paper's hasS). The scan hands the columns out as
// zero-copy views (Columns); rows are derived on demand (Row, Rows).
//
// A published partition is never written. The writer's copy-on-write step
// is Clone, which shares every column's backing array with its capacity
// clipped to its length: an append to the clone reallocates, an update
// copies the one column it sets (Writable), a delete compacts into fresh
// arrays (Delete).
type Partition struct {
	cols [][]int64
}

// Columnar is a view of a partition's columns.
type Columnar struct {
	// Cols holds width+2 vectors: the table columns in schema order, then
	// dup, then hasRef. Read-only: they are the partition's storage.
	Cols [][]int64
	// NRows is the partition row count.
	NRows int
}

// NewPartition returns an empty partition of a table with width columns.
func NewPartition(width int) *Partition {
	return &Partition{cols: make([][]int64, width+2)}
}

// Reserve makes room for rows stored tuples, so a bulk build that knows
// about how many are coming does not grow the columns step by step.
func (p *Partition) Reserve(rows int) {
	for j, c := range p.cols {
		p.cols[j] = slices.Grow(c, max(0, rows-len(c)))
	}
}

// Append stores one tuple copy with its index bits.
func (p *Partition) Append(t value.Tuple, dup, hasRef bool) {
	p.AppendTorn(t)
	p.cols[len(t)] = append(p.cols[len(t)], flag(dup))
	p.cols[len(t)+1] = append(p.cols[len(t)+1], flag(hasRef))
}

// AppendTorn stores a tuple's values without its index entries: the state
// a write leaves behind when it crashes between the two, which the fault
// injector reproduces and CheckInvariants reports.
func (p *Partition) AppendTorn(t value.Tuple) {
	if len(t) != len(p.cols)-2 {
		// lint:invariant
		panic(fmt.Sprintf("table: row arity %d appended to a partition of width %d", len(t), len(p.cols)-2))
	}
	for j, v := range t {
		p.cols[j] = append(p.cols[j], v)
	}
}

func flag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Len reports the number of stored tuple copies.
func (p *Partition) Len() int { return len(p.cols[0]) }

// Row derives stored tuple i from the columns.
func (p *Partition) Row(i int) value.Tuple {
	t := make(value.Tuple, len(p.cols)-2)
	for j := range t {
		t[j] = p.cols[j][i]
	}
	return t
}

// Rows derives every stored tuple, in stored order.
func (p *Partition) Rows() []value.Tuple {
	out := make([]value.Tuple, p.Len())
	for i := range out {
		out[i] = p.Row(i)
	}
	return out
}

// Dup reports the dup index bit of stored tuple i.
func (p *Partition) Dup(i int) bool { return p.cols[len(p.cols)-2][i] != 0 }

// HasRef reports the hasRef index bit of stored tuple i.
func (p *Partition) HasRef(i int) bool { return p.cols[len(p.cols)-1][i] != 0 }

// Width reports the number of table columns the partition stores.
func (p *Partition) Width() int { return len(p.cols) - 2 }

// Columns returns the partition's columns for a table of the given width.
// Safe for concurrent readers on frozen partitions — the only partitions a
// query can reach through a DBSnapshot, since the write path clones
// published partitions (BeginWrite) before mutating.
func (p *Partition) Columns(width int) *Columnar {
	if len(p.cols) != width+2 {
		// lint:invariant
		panic(fmt.Sprintf("table: partition of width %d read as width %d", len(p.cols)-2, width))
	}
	return &Columnar{Cols: p.cols, NRows: p.Len()}
}

// Clone returns the copy-on-write clone the writer mutates in place of a
// published partition (see Partition).
func (p *Partition) Clone() *Partition {
	cols := make([][]int64, len(p.cols))
	for j, c := range p.cols {
		cols[j] = c[:len(c):len(c)]
	}
	return &Partition{cols: cols}
}

// Writable replaces column col with a private copy and returns it for the
// writer to overwrite values in.
func (p *Partition) Writable(col int) []int64 {
	p.cols[col] = slices.Clone(p.cols[col])
	return p.cols[col]
}

// Delete drops the stored tuples at the given ascending row indexes.
func (p *Partition) Delete(rows []int) {
	for j, c := range p.cols {
		kept := make([]int64, 0, len(c)-len(rows))
		drop := rows
		for i, v := range c {
			if len(drop) > 0 && drop[0] == i {
				drop = drop[1:]
				continue
			}
			kept = append(kept, v)
		}
		p.cols[j] = kept
	}
}

// CheckInvariants is the cheap corruption guard of the write path: every
// stored row must carry exactly one value per column, one dup bit and one
// hasRef bit. A torn write (values appended, index entries not — or the
// reverse) breaks it.
func (p *Partition) CheckInvariants() error {
	if len(p.cols) < 2 {
		return fmt.Errorf("table: partition columns not initialized")
	}
	for j, c := range p.cols {
		if len(c) != len(p.cols[0]) {
			return fmt.Errorf("table: torn partition: %d rows, %d entries in column %d of %d",
				len(p.cols[0]), len(c), j, len(p.cols))
		}
	}
	return nil
}

// Version is one immutable published epoch of a partitioned table.
// Readers holding a Version see a frozen, torn-free view of the table no
// matter what the write path does to the live head afterwards.
type Version struct {
	// Epoch is the per-table publication counter, starting at 0.
	Epoch int64
	// Parts is the frozen partition set. Neither the slice nor the
	// partitions it points to are ever mutated after publication.
	Parts []*Partition
	// Rows is OriginalRows at publication time.
	Rows int

	// copies caches the version's copy index (see Copies).
	copiesOnce sync.Once
	copies     *CopyIndex
}

// Partitioned is a horizontally partitioned table.
//
// It separates two views of the data: Parts is the live head owned by the
// single writer (the bulk loader), and an atomically published Version is
// what concurrent readers pin (Snapshot). Between commits the head and
// the published version share the same *Partition objects; a writer must
// call BeginWrite before mutating a partition so a head partition that is
// still the published pointer is cloned first (copy-on-write), keeping
// every published epoch immutable.
type Partitioned struct {
	Meta *catalog.Table
	// Parts has one entry per logical node. It is the writer's head: code
	// that mutates partitions in place (the single-threaded build and
	// load paths) must either run before the first Snapshot or go through
	// BeginWrite.
	Parts []*Partition
	// OriginalRows is the pre-partitioning cardinality |T|; the stored
	// cardinality |T^P| may be larger due to PREF duplicates or replication.
	OriginalRows int
	// Replicated marks a fully replicated table (every partition holds
	// every row).
	Replicated bool

	// pub is the latest published epoch; nil until first Snapshot/Publish.
	pub atomic.Pointer[Version]
	// pubMu serializes publications (Snapshot's lazy epoch 0, Publish).
	pubMu sync.Mutex
}

// NewPartitioned returns a partitioned table with n empty partitions.
func NewPartitioned(meta *catalog.Table, n int) *Partitioned {
	parts := make([]*Partition, n)
	for i := range parts {
		parts[i] = NewPartition(meta.NumCols())
	}
	return &Partitioned{Meta: meta, Parts: parts}
}

// NumPartitions reports the partition count.
func (pt *Partitioned) NumPartitions() int { return len(pt.Parts) }

// Snapshot returns the latest published version, publishing the current
// head as epoch 0 on first use. Safe for concurrent readers; the lazy
// first publication assumes the single-writer discipline (no concurrent
// head mutation during the initial build, which ends before queries run).
func (pt *Partitioned) Snapshot() *Version {
	if v := pt.pub.Load(); v != nil {
		return v
	}
	pt.pubMu.Lock()
	defer pt.pubMu.Unlock()
	if v := pt.pub.Load(); v != nil {
		return v
	}
	pt.publishLocked(0)
	return pt.pub.Load()
}

// BeginWrite returns head partition p ready for mutation, cloning it
// first when it is still the very partition the published version holds
// (copy-on-write). A table never published has a private head. Single
// writer only.
func (pt *Partitioned) BeginWrite(p int) *Partition {
	if v := pt.pub.Load(); v != nil && p < len(v.Parts) && pt.Parts[p] == v.Parts[p] {
		pt.Parts[p] = pt.Parts[p].Clone()
	}
	return pt.Parts[p]
}

// Publish freezes the current head as the next epoch and returns it.
// In-flight readers keep their pinned versions; new Snapshot calls see
// the fresh epoch. Single writer only.
func (pt *Partitioned) Publish() int64 {
	pt.pubMu.Lock()
	defer pt.pubMu.Unlock()
	var epoch int64
	if v := pt.pub.Load(); v != nil {
		epoch = v.Epoch + 1
	}
	return pt.publishLocked(epoch)
}

// publishLocked installs the head as the given epoch. Callers hold pubMu.
// The stored Version is the only record of which partitions are published:
// BeginWrite and ResetToPublished compare head pointers against it, so
// nothing has to follow the atomic store.
func (pt *Partitioned) publishLocked(epoch int64) int64 {
	parts := make([]*Partition, len(pt.Parts))
	copy(parts, pt.Parts)
	pt.pub.Store(&Version{Epoch: epoch, Parts: parts, Rows: pt.OriginalRows})
	return epoch
}

// ResetToPublished discards all head mutations since the last publication,
// restoring every partition (and OriginalRows) from the published version.
// This is the write path's rollback: a crash can leave the head torn —
// partially applied fan-outs, values without index entries — but published
// epochs are immutable, so restoring from them repairs every column-length
// invariant at once. Returns the number of head row copies discarded:
// the rows of every head partition that is no longer the published one.
// A table never published has nothing to roll back. Single writer only.
func (pt *Partitioned) ResetToPublished() int {
	v := pt.pub.Load()
	if v == nil {
		return 0
	}
	discarded := 0
	for p, part := range pt.Parts {
		if p >= len(v.Parts) || part != v.Parts[p] {
			discarded += part.Len()
		}
	}
	pt.Parts = make([]*Partition, len(v.Parts))
	copy(pt.Parts, v.Parts)
	pt.OriginalRows = v.Rows
	return discarded
}

// StoredRows reports |T^P|: total stored tuple copies across partitions.
func (pt *Partitioned) StoredRows() int {
	n := 0
	for _, p := range pt.Parts {
		n += p.Len()
	}
	return n
}

// DuplicateRows reports how many stored copies are PREF duplicates.
func (pt *Partitioned) DuplicateRows() int {
	n := 0
	for _, p := range pt.Parts {
		for _, d := range p.cols[len(p.cols)-2] {
			n += int(d)
		}
	}
	return n
}

// Redundancy reports |T^P|/|T| − 1 for this single table (0 = none).
func (pt *Partitioned) Redundancy() float64 {
	if pt.OriginalRows == 0 {
		return 0
	}
	return float64(pt.StoredRows())/float64(pt.OriginalRows) - 1
}

// Database is a set of unpartitioned tables keyed by name.
type Database struct {
	Schema *catalog.Schema
	Tables map[string]*Data
}

// NewDatabase returns an empty database with one Data per schema table.
func NewDatabase(s *catalog.Schema) *Database {
	db := &Database{Schema: s, Tables: make(map[string]*Data)}
	for _, t := range s.Tables() {
		db.Tables[t.Name] = NewData(t)
	}
	return db
}

// Without returns a database view excluding the named tables (sharing the
// remaining tables' data). Design algorithms use it to drop small
// fully-replicated tables before partitioning (Section 3.1).
func (db *Database) Without(names ...string) *Database {
	out := &Database{Schema: db.Schema.Without(names...), Tables: make(map[string]*Data)}
	for _, t := range out.Schema.Tables() {
		out.Tables[t.Name] = db.Tables[t.Name]
	}
	return out
}

// TotalRows reports |D|: the sum of all table cardinalities.
func (db *Database) TotalRows() int {
	n := 0
	for _, t := range db.Tables {
		n += t.Len()
	}
	return n
}

// PartitionedDatabase is the result of applying a partitioning
// configuration to a Database.
type PartitionedDatabase struct {
	Schema *catalog.Schema
	Tables map[string]*Partitioned
	N      int // number of partitions / nodes

	// mu orders snapshots against commits, so a DBSnapshot never observes
	// a commit's tables half-published; epoch counts commits.
	mu    sync.RWMutex
	epoch int64
}

// DBSnapshot pins one consistent database epoch: every table's version as
// of a single commit boundary. Queries resolve it once at admission and
// read only through it, so a batch publishing mid-query is invisible.
type DBSnapshot struct {
	// Epoch is the database-wide commit counter at pin time.
	Epoch int64
	// Tables maps each table to its pinned version.
	Tables map[string]*Version
}

// Parts returns the pinned partition set of a table, or nil when the
// snapshot does not hold it.
func (s *DBSnapshot) Parts(tbl string) []*Partition {
	if s == nil {
		return nil
	}
	if v, ok := s.Tables[tbl]; ok {
		return v.Parts
	}
	return nil
}

// Snapshot pins the current epoch across all tables, atomically with
// respect to Commit. First use freezes every table at epoch 0.
func (pdb *PartitionedDatabase) Snapshot() *DBSnapshot {
	pdb.mu.RLock()
	defer pdb.mu.RUnlock()
	s := &DBSnapshot{Epoch: pdb.epoch, Tables: make(map[string]*Version, len(pdb.Tables))}
	for name, pt := range pdb.Tables {
		s.Tables[name] = pt.Snapshot()
	}
	return s
}

// Epoch reports the database-wide commit counter.
func (pdb *PartitionedDatabase) Epoch() int64 {
	pdb.mu.RLock()
	defer pdb.mu.RUnlock()
	return pdb.epoch
}

// Commit publishes the heads of the named tables as fresh per-table
// versions and bumps the database epoch — the single atomic step that
// makes a write batch visible. Snapshots taken before Commit returns see
// either none or all of the batch. Single writer only.
func (pdb *PartitionedDatabase) Commit(tables ...string) int64 {
	pdb.mu.Lock()
	defer pdb.mu.Unlock()
	for _, name := range tables {
		if pt := pdb.Tables[name]; pt != nil {
			pt.Publish()
		}
	}
	pdb.epoch++
	return pdb.epoch
}

// TotalStoredRows reports |D^P|.
func (pdb *PartitionedDatabase) TotalStoredRows() int {
	n := 0
	for _, t := range pdb.Tables {
		n += t.StoredRows()
	}
	return n
}

// DataRedundancy reports DR = |D^P|/|D| − 1 (Section 3.3), where |D| is the
// sum of original cardinalities of the partitioned tables.
func (pdb *PartitionedDatabase) DataRedundancy() float64 {
	orig := 0
	for _, t := range pdb.Tables {
		orig += t.OriginalRows
	}
	if orig == 0 {
		return 0
	}
	return float64(pdb.TotalStoredRows())/float64(orig) - 1
}
