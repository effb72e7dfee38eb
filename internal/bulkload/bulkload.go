// Package bulkload implements the incremental write path of Section 2.3:
// inserting new tuples into a partitioned database, either one that
// partition.Apply built or the empty one of partition.NewStore. Where a
// row goes is not decided here: inserts are placed by partition.Placer,
// the rule partition.Apply places by, and this package turns the targets
// into recorded steps. Inserts into a PREF-partitioned table use the
// partition index — a hash index mapping referenced-attribute values to
// the set of partitions holding them — so no join with the referenced
// table is executed per tuple. Updates and deletes fan out to all
// partitions; partitioning-predicate columns are immutable. No write may
// break a constraint the schema declares (constraint.go).
//
// Writes are crash-consistent. Every batch follows one protocol:
//
//  1. plan    — compute the full physical step list (per-partition
//     appends/deletes/rewrites) against the last published epoch;
//  2. intend  — record the plan in the intent log (IntentPending);
//  3. apply   — execute the steps on copy-on-write clones of the shared
//     partitions (the published epoch is never mutated);
//  4. publish — atomically commit a new database epoch and mark the
//     intent IntentApplied.
//
// An injected crash at any point between 2 and 4 leaves the loader in a
// torn state: further writes return ErrNeedRecovery until Recover rolls
// the head back to the published epoch and replays the pending intent's
// recorded steps verbatim. Queries are unaffected throughout — they read
// pinned epoch snapshots, never the write head.
package bulkload

import (
	"errors"
	"fmt"
	"sort"

	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/table"
	"pref/internal/trace"
	"pref/internal/value"
)

// ErrNeedRecovery rejects writes after a crashed batch until Recover has
// rolled back the torn head and replayed the pending intent.
var ErrNeedRecovery = errors.New("bulkload: store torn by a crashed write; run Recover first")

// Loader incrementally loads tuples into one partitioned database under
// its configuration. It is single-writer: one goroutine applies batches,
// while any number of readers query pinned snapshots concurrently.
type Loader struct {
	pdb *table.PartitionedDatabase
	cfg *partition.Config

	// placers caches one partition.Placer per table. A PREF table's
	// placer holds the partition index of its referenced table
	// (referenced key → sorted partition set), so it is dropped whenever
	// that table changes.
	placers map[string]*partition.Placer
	// UsePartitionIndex can be disabled, before the first insert, to
	// measure its benefit (the Section 2.3 ablation): inserts then scan
	// the referenced table.
	UsePartitionIndex bool

	// Faults, when set, supplies write-side crash and index-race
	// injection. Nil disables injection.
	Faults *fault.Injector

	// Metrics accumulates write-amplification and protocol counters.
	Metrics trace.WriteMetrics

	log     IntentLog
	seq     int64
	crashed bool

	// Lookups counts referenced-table partition lookups performed.
	Lookups int
	// ScannedRows counts referenced-table rows scanned when the partition
	// index is disabled.
	ScannedRows int
}

// NewLoader prepares a loader for the given partitioned database.
func NewLoader(pdb *table.PartitionedDatabase, cfg *partition.Config) *Loader {
	return &Loader{
		pdb: pdb, cfg: cfg,
		placers:           map[string]*partition.Placer{},
		UsePartitionIndex: true,
	}
}

// NeedsRecovery reports whether a crashed batch left the head torn.
func (l *Loader) NeedsRecovery() bool { return l.crashed }

// Log exposes the intent journal (pending intents after a crash).
func (l *Loader) Log() *IntentLog { return &l.log }

// Commit describes one published batch.
type Commit struct {
	// Seq is the batch's intent sequence number.
	Seq int64
	// Epoch is the database epoch the batch published.
	Epoch int64
	// Tables lists the tables republished by the commit.
	Tables []string

	// Inserted counts logical inserts; Stored, Removed, and Rewritten
	// count physical copies appended, deleted, and rewritten in place.
	Inserted  int
	Stored    int
	Removed   int
	Rewritten int
}

// Apply plans, intends, applies, and publishes one batch atomically. A
// batch targets a single table with a single op kind; insert batches may
// carry any number of rows, delete and update batches exactly one op.
// Under fault injection Apply may return fault.ErrWriteCrashed, after
// which every write returns ErrNeedRecovery until Recover is run.
func (l *Loader) Apply(ops ...Op) (*Commit, error) {
	if l.crashed {
		return nil, ErrNeedRecovery
	}
	if len(ops) == 0 {
		return &Commit{Seq: -1, Epoch: l.pdb.Epoch()}, nil
	}
	// Anchor the current epoch so a rollback target always exists, even
	// for tables that have never been committed through this loader.
	l.pdb.Snapshot()

	it, err := l.plan(ops)
	if err != nil {
		return nil, err
	}
	l.Metrics.IntentOps += int64(it.Ops)
	switch it.Kind {
	case OpInsert:
		l.Metrics.LogicalInserts += int64(it.Ops)
	case OpDelete:
		l.Metrics.LogicalDeletes += int64(it.Ops)
	case OpUpdate:
		l.Metrics.LogicalUpdates += int64(it.Ops)
	}
	l.log.append(it)
	l.seq++

	seq := int(it.Seq)
	if l.Faults.WriteIndexRace(seq) {
		// Invalidation race: the cached partition indexes vanish mid-
		// write. Targets were already bound during planning, so the race
		// only costs a rebuild on the next batch — which is exactly the
		// invariant the intent log is meant to guarantee.
		l.placers = map[string]*partition.Placer{}
		l.Metrics.IndexRaces++
	}
	stage, stepIdx := l.Faults.WriteCrash(seq, len(it.Steps))
	if stage != fault.WriteNoCrash {
		l.Metrics.Crashes++
	}
	if stage == fault.CrashAfterIntent {
		l.crashed = true
		return nil, fault.ErrWriteCrashed
	}
	if err := l.applySteps(it, stage, stepIdx); err != nil {
		l.crashed = true
		return nil, err
	}
	if stage == fault.CrashBeforePublish {
		l.crashed = true
		return nil, fault.ErrWriteCrashed
	}
	return l.commit(it), nil
}

// Recover repairs the store after a crashed batch: it rolls every table
// touched by pending intents back to its published epoch (discarding
// torn rows and half-applied fan-outs wholesale), verifies the column-
// length invariants, then replays the pending intents' recorded
// steps in sequence order and publishes them. After a successful
// recovery the crashed batch is durable — its epoch exists exactly as if
// the crash had never happened. Its mutations are covered by the intents
// recorded before the crash.
func (l *Loader) Recover() (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	pend := l.log.Pending()
	rep.Pending = len(pend)
	if !l.crashed && len(pend) == 0 {
		return rep, nil
	}

	tset := map[string]bool{}
	for _, it := range pend {
		for _, t := range it.tables() {
			tset[t] = true
		}
	}
	names := make([]string, 0, len(tset))
	for t := range tset {
		names = append(names, t)
	}
	sort.Strings(names)

	for _, t := range names {
		d := l.pdb.Tables[t].ResetToPublished()
		rep.DiscardedRows += d
		rep.RepairedTables = append(rep.RepairedTables, t)
		l.Metrics.RolledBackRows += int64(d)
	}
	for _, t := range names {
		pt := l.pdb.Tables[t]
		for p, part := range pt.Parts {
			if err := part.CheckInvariants(); err != nil {
				return rep, fmt.Errorf("bulkload: rollback of %s partition %d: %w", t, p, err)
			}
		}
	}
	for _, it := range pend {
		if err := l.applySteps(it, fault.WriteNoCrash, 0); err != nil {
			return rep, fmt.Errorf("bulkload: replay of intent %d: %w", it.Seq, err)
		}
		l.commit(it)
		rep.Replayed++
		l.Metrics.Replays++
	}
	l.crashed = false
	// The head moved underneath the caches; rebuild lazily.
	l.placers = map[string]*partition.Placer{}
	return rep, nil
}

// plan validates a batch and computes its full physical step list
// against the current (published-equal) head. Planning mutates nothing.
func (l *Loader) plan(ops []Op) (*Intent, error) {
	kind, tbl := ops[0].Kind, ops[0].Table
	for _, op := range ops {
		if op.Kind != kind || op.Table != tbl {
			return nil, fmt.Errorf("bulkload: a batch must target one table with one op kind")
		}
	}
	if kind != OpInsert && len(ops) != 1 {
		return nil, fmt.Errorf("bulkload: %s batches must contain exactly one op", kind)
	}
	pt := l.pdb.Tables[tbl]
	if pt == nil {
		return nil, fmt.Errorf("bulkload: unknown table %s", tbl)
	}
	if l.cfg.Scheme(tbl) == nil {
		return nil, fmt.Errorf("bulkload: no scheme for table %s", tbl)
	}
	it := &Intent{
		Seq: l.seq, BaseEpoch: l.pdb.Epoch(), Kind: kind, Table: tbl,
		Ops: len(ops), RRAfter: map[string]int{}, DeltaRows: map[string]int{},
		State: IntentPending,
	}
	var err error
	switch kind {
	case OpInsert:
		err = l.planInserts(it, pt, ops)
	case OpDelete:
		err = l.planDelete(it, pt, ops[0])
	case OpUpdate:
		err = l.planUpdate(it, pt, ops[0])
	default:
		err = fmt.Errorf("bulkload: unknown op kind %v", kind)
	}
	if err != nil {
		return nil, err
	}
	return it, nil
}

// planInserts places each row through the table's partition.Placer — the
// rule partition.Apply places by — and records every target as an append
// step. The referenced table must be loaded first; inserts into the
// batch's own table cannot change its own targets, so the partition index
// stays valid for the whole batch. The round-robin cursor advances only
// at commit (the cursor after the batch is recorded in the intent), so a
// crashed batch replays with identical placement.
func (l *Loader) planInserts(it *Intent, pt *table.Partitioned, ops []Op) error {
	pl, err := l.placer(it.Table, pt)
	if err != nil {
		return err
	}
	appends := map[int][]AppendRec{}
	cursor := pt.Cursor
	for _, op := range ops {
		row := op.Row
		if len(row) != pt.Meta.NumCols() {
			return fmt.Errorf("bulkload: table %s: row arity %d, want %d", it.Table, len(row), pt.Meta.NumCols())
		}
		if err := l.checkInsert(pt, row); err != nil {
			return err
		}
		parts, hasRef := pl.Place(row, &cursor)
		for i, p := range parts {
			appends[p] = append(appends[p], AppendRec{Row: row, Dup: i > 0, HasRef: hasRef})
		}
	}

	if cursor != pt.Cursor {
		it.RRAfter[it.Table] = cursor
	}
	it.DeltaRows[it.Table] = len(ops)
	parts := make([]int, 0, len(appends))
	for p := range appends {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	for _, p := range parts {
		it.Steps = append(it.Steps, IntentStep{
			Table: it.Table, Part: p, Appends: appends[p], PreLen: pt.Parts[p].Len(),
		})
	}
	return nil
}

// planDelete fans the match predicate out to every partition (Section
// 2.3) and records pre-batch row indexes to drop. Deletes that would
// strand PREF copies of a referencing table are rejected: the loader
// does not re-place referencing tuples downward, so the referenced-side
// key must be unreferenced first.
func (l *Loader) planDelete(it *Intent, pt *table.Partitioned, op Op) error {
	idx, err := pt.Meta.ColIndexes(op.Cols)
	if err != nil {
		return err
	}
	originals := 0
	var deleted []value.Tuple
	for p, part := range pt.Parts {
		del := matching(pt, part, idx, op.Vals)
		for _, i := range del {
			if !part.Dup(i) {
				originals++
				deleted = append(deleted, part.Row(i))
			}
		}
		if len(del) > 0 {
			it.Steps = append(it.Steps, IntentStep{
				Table: it.Table, Part: p, Deletes: del, PreLen: part.Len(),
			})
		}
	}
	if err := l.checkNoDanglingRefs(it.Table, pt, deleted); err != nil {
		return err
	}
	it.DeltaRows[it.Table] = -originals
	return nil
}

// checkNoDanglingRefs rejects a delete whose victim keys are still used
// by a PREF partitioning predicate: removing the referenced-side copies
// would leave the referencing tuples' hasRef bits and partition-index
// justification dangling. Conservative: any surviving referencing tuple
// with a matching ring key blocks the delete.
func (l *Loader) checkNoDanglingRefs(tbl string, pt *table.Partitioned, deleted []value.Tuple) error {
	if len(deleted) == 0 {
		return nil
	}
	var deps []string
	for name, other := range l.cfg.Schemes {
		if other.Method == partition.Pref && other.RefTable == tbl {
			deps = append(deps, name)
		}
	}
	sort.Strings(deps)
	for _, name := range deps {
		other := l.cfg.Schemes[name]
		dep := l.pdb.Tables[name]
		if dep == nil || dep.StoredRows() == 0 {
			continue
		}
		refIdx, err := pt.Meta.ColIndexes(other.Pred.ReferencedCols)
		if err != nil {
			return err
		}
		keys := map[value.Key]bool{}
		for _, r := range deleted {
			keys[value.MakeKey(r, refIdx)] = true
		}
		depIdx, err := dep.Meta.ColIndexes(other.Pred.ReferencingCols)
		if err != nil {
			return err
		}
		for _, part := range dep.Parts {
			data := part.Columns(dep.Meta.NumCols()).Cols
			for i, n := 0, part.Len(); i < n; i++ {
				if keys[value.MakeKeyAt(data, i, depIdx)] {
					return fmt.Errorf("bulkload: delete from %s would strand PREF copies in %s (referenced key still in use); delete the %s tuples first", tbl, name, name)
				}
			}
		}
	}
	return nil
}

// planUpdate fans the rewrite out to every copy of matching tuples.
// Updating partitioning-predicate, own-scheme, or seed-partitioning
// (hash-equivalence-mapped) columns is rejected — Section 2.3's
// restriction.
func (l *Loader) planUpdate(it *Intent, pt *table.Partitioned, op Op) error {
	if l.isPartitioningColumn(it.Table, op.SetCol) {
		return fmt.Errorf("bulkload: column %s.%s is used for partitioning and cannot be updated", it.Table, op.SetCol)
	}
	set := pt.Meta.ColIndex(op.SetCol)
	if set < 0 {
		return fmt.Errorf("bulkload: unknown column %s.%s", it.Table, op.SetCol)
	}
	if err := l.checkUpdate(pt.Meta, op.SetCol); err != nil {
		return err
	}
	idx, err := pt.Meta.ColIndexes(op.Cols)
	if err != nil {
		return err
	}
	for p, part := range pt.Parts {
		var sets []SetRec
		for _, i := range matching(pt, part, idx, op.Vals) {
			sets = append(sets, SetRec{Row: i, Col: set, Val: op.SetVal})
		}
		if len(sets) > 0 {
			it.Steps = append(it.Steps, IntentStep{
				Table: it.Table, Part: p, Sets: sets, PreLen: part.Len(),
			})
		}
	}
	return nil
}

// applySteps executes an intent's steps on copy-on-write head clones,
// honoring an injected crash stage: CrashMidApply stops cleanly before
// step stepIdx (earlier steps fully applied), CrashTornApply tears step
// stepIdx — half its appends land fully, one more row lands without its
// index entries. Replay calls this with fault.WriteNoCrash. Every caller
// holds the intent record that covers these writes.
func (l *Loader) applySteps(it *Intent, stage fault.WriteStage, stepIdx int) error {
	for j := range it.Steps {
		st := &it.Steps[j]
		if stage == fault.CrashMidApply && j == stepIdx {
			return fault.ErrWriteCrashed
		}
		pt := l.pdb.Tables[st.Table]
		part := pt.BeginWrite(st.Part)
		if part.Len() != st.PreLen {
			// The step was planned against a different partition image
			// than the one being written.
			return fmt.Errorf("bulkload: intent %d step %d: %s[%d] has %d rows, planned against %d",
				it.Seq, j, st.Table, st.Part, part.Len(), st.PreLen)
		}
		var col []int64 // private copy of the column the step's sets write
		for k, s := range st.Sets {
			if k == 0 || s.Col != st.Sets[k-1].Col {
				col = part.Writable(s.Col)
			}
			col[s.Row] = s.Val
		}
		if len(st.Deletes) > 0 {
			part.Delete(st.Deletes)
		}
		if stage == fault.CrashTornApply && j == stepIdx {
			k := len(st.Appends) / 2
			for _, a := range st.Appends[:k] {
				part.Append(a.Row, a.Dup, a.HasRef)
			}
			if k < len(st.Appends) {
				part.AppendTorn(st.Appends[k].Row)
			}
			return fault.ErrWriteCrashed
		}
		for _, a := range st.Appends {
			part.Append(a.Row, a.Dup, a.HasRef)
		}
	}
	return nil
}

// commit installs the intent's bookkeeping deltas, publishes a new
// database epoch covering every touched table, and marks the intent
// applied. Called only after every step executed crash-free, with the
// covering intent open.
func (l *Loader) commit(it *Intent) *Commit {
	for t, d := range it.DeltaRows {
		l.pdb.Tables[t].OriginalRows += d
	}
	for t, c := range it.RRAfter {
		l.pdb.Tables[t].Cursor = c
	}
	tables := it.tables()
	epoch := l.pdb.Commit(tables...)
	it.State = IntentApplied
	l.invalidateDependents(it.Table)
	l.log.prune()

	l.Metrics.Batches++
	l.Metrics.StoredCopies += int64(it.appended())
	l.Metrics.RemovedCopies += int64(it.removed())
	l.Metrics.RewrittenCopies += int64(it.rewritten())

	c := &Commit{
		Seq: it.Seq, Epoch: epoch, Tables: tables,
		Stored: it.appended(), Removed: it.removed(), Rewritten: it.rewritten(),
	}
	if it.Kind == OpInsert {
		c.Inserted = it.Ops
	}
	return c
}

// placer returns (building on first use) the placer of table tbl, stored
// as pt. A PREF table's placer finds partitioning partners through the
// partition index on the referenced columns or, with UsePartitionIndex
// off, by scanning the referenced table.
func (l *Loader) placer(tbl string, pt *table.Partitioned) (*partition.Placer, error) {
	if pl, ok := l.placers[tbl]; ok {
		return pl, nil
	}
	var lookup func(value.Tuple, []int) []int
	if ts := l.cfg.Scheme(tbl); ts.Method == partition.Pref {
		ref := l.pdb.Tables[ts.RefTable]
		if ref == nil {
			return nil, fmt.Errorf("bulkload: referenced table %s not loaded", ts.RefTable)
		}
		if l.UsePartitionIndex {
			index, err := partition.PartitionIndex(ref, ts.Pred.ReferencedCols)
			if err != nil {
				return nil, err
			}
			lookup = func(row value.Tuple, ringCols []int) []int {
				l.Lookups++
				return index(row, ringCols)
			}
		} else {
			cols, err := ref.Meta.ColIndexes(ts.Pred.ReferencedCols)
			if err != nil {
				return nil, err
			}
			lookup = func(row value.Tuple, ringCols []int) []int {
				var targets []int
				for p, part := range ref.Parts {
					data := part.Columns(ref.Meta.NumCols()).Cols
					for i, n := 0, part.Len(); i < n; i++ {
						l.ScannedRows++
						if sameKey(row, ringCols, data, i, cols) {
							targets = append(targets, p)
							break
						}
					}
				}
				return targets
			}
		}
	}
	pl, err := partition.NewPlacer(l.cfg, pt.Meta, lookup)
	if err != nil {
		return nil, err
	}
	l.placers[tbl] = pl
	return pl, nil
}

// sameKey reports whether row's columns ringCols hold the values of row i
// of column-major data's columns cols.
func sameKey(row value.Tuple, ringCols []int, data [][]int64, i int, cols []int) bool {
	for k, c := range cols {
		if data[c][i] != row[ringCols[k]] {
			return false
		}
	}
	return true
}

// invalidateDependents drops the cached placers, and with them the
// partition indexes, of tables that PREF-reference tbl (their referenced
// data changed).
func (l *Loader) invalidateDependents(tbl string) {
	for name, ts := range l.cfg.Schemes {
		if ts.Method == partition.Pref && ts.RefTable == tbl {
			delete(l.placers, name)
		}
	}
}

// Insert adds one tuple as a single-op batch.
func (l *Loader) Insert(tbl string, row value.Tuple) error {
	_, err := l.Apply(Insert(tbl, row))
	return err
}

// InsertBatch loads many tuples into one table as one atomic batch (one
// published epoch, one COW clone per touched partition).
func (l *Loader) InsertBatch(tbl string, rows []value.Tuple) error {
	if len(rows) == 0 {
		return nil
	}
	ops := make([]Op, len(rows))
	for i, r := range rows {
		ops[i] = Insert(tbl, r)
	}
	_, err := l.Apply(ops...)
	return err
}

// LoadDatabase bulk loads a full unpartitioned database in
// referenced-before-referencing order, returning the per-table insert
// counts. This is the experiment path of Figure 10 (tuple-at-a-time with
// partition indexes), in contrast to partition.Apply's offline path.
func (l *Loader) LoadDatabase(db *table.Database) (map[string]int, error) {
	order, err := l.cfg.Order()
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for _, tbl := range order {
		data, ok := db.Tables[tbl]
		if !ok {
			return nil, fmt.Errorf("bulkload: no data for table %s", tbl)
		}
		if err := l.InsertBatch(tbl, data.Rows); err != nil {
			return nil, err
		}
		counts[tbl] = data.Len()
	}
	return counts, nil
}

// Delete removes all tuples matching the predicate columns from every
// partition of a table (deletes fan out, Section 2.3). It returns the
// number of stored copies removed.
func (l *Loader) Delete(tbl string, cols []string, keyVals value.Tuple) (int, error) {
	c, err := l.Apply(Delete(tbl, cols, keyVals))
	if err != nil {
		return 0, err
	}
	return c.Removed, nil
}

// Update rewrites non-key attributes of all copies of matching tuples.
// Updating partitioning-predicate or partitioning columns is rejected
// (Section 2.3's restriction). It returns the number of copies
// rewritten.
func (l *Loader) Update(tbl string, matchCols []string, matchVals value.Tuple, setCol string, setVal int64) (int, error) {
	c, err := l.Apply(Update(tbl, matchCols, matchVals, setCol, setVal))
	if err != nil {
		return 0, err
	}
	return c.Rewritten, nil
}

// isPartitioningColumn reports whether a column participates in the
// table's own scheme, in any PREF predicate referencing the table, or in
// the table's seed-partitioning placement (the hash-equivalence-mapped
// columns that decide where orphans — and for hash-equivalent schemes,
// every copy — are stored).
func (l *Loader) isPartitioningColumn(tbl, col string) bool {
	ts := l.cfg.Scheme(tbl)
	if ts != nil {
		for _, c := range ts.Cols {
			if c == col {
				return true
			}
		}
		if ts.Method == partition.Pref {
			for _, c := range ts.Pred.ReferencingCols {
				if c == col {
					return true
				}
			}
		}
	}
	if mapped, ok := l.cfg.HashEquivalent(tbl); ok {
		for _, c := range mapped {
			if c == col {
				return true
			}
		}
	}
	for _, other := range l.cfg.Schemes {
		if other.Method == partition.Pref && other.RefTable == tbl {
			for _, c := range other.Pred.ReferencedCols {
				if c == col {
					return true
				}
			}
		}
	}
	return false
}

// matching returns, ascending, the stored rows of one partition of pt
// whose columns cols equal vals.
func matching(pt *table.Partitioned, part *table.Partition, cols []int, vals value.Tuple) []int {
	data := part.Columns(pt.Meta.NumCols()).Cols
	var out []int
rows:
	for i, n := 0, part.Len(); i < n; i++ {
		for k, c := range cols {
			if data[c][i] != vals[k] {
				continue rows
			}
		}
		out = append(out, i)
	}
	return out
}
