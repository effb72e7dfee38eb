package engine

import (
	"fmt"
	"sync/atomic"

	"pref/internal/batch"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/value"
)

// Index reads.
//
// A node of the paper's cluster ran MySQL, whose InnoDB keeps an index on
// every primary key and every foreign key, and TPC-H allows one more kind of
// auxiliary structure: an index on a single DATE column. The key columns
// indexed are catalog.Schema.KeyIndexed's: the column that leads a table's
// primary key and every column of a declared foreign key, since TPC-H
// declares each column of its compound key L_PARTKEY, L_SUPPKEY a foreign key
// of its own too (so lineitem.suppkey is indexed, though it leads no key). A
// filter directly over a base-table scan reads the scan through one of them:
//
//   - a runtime filter over a scan of a key column looks each of its K
//     distinct keys (a local filter's own source partition's, a shipped
//     one's union over every source partition) up in a key index of the
//     partition's stored column (keyedCol): K probes;
//   - a Filter with literal bounds on a DATE column looks the range up in a
//     sorted index of that column (rangeCol), the lowest such column: one
//     probe.
//
// Either read fetches only the F rows the index names, in stored order.
// The index is storage, not query work: table.Partition builds it once per
// frozen partition, on first use, and the engine meters no build work, so
// Stats stay a function of the plan and the snapshot. The scan's work on such
// a partition is probes + F. Its row counts stay logical — it outputs the
// partition, and the filter above drops what the index skipped, as it drops
// what it filters, counting those rows as filtered — so every trace
// conservation law holds as before; the scan's cell also counts the probes.
//
// A partition is read whole instead when it is pruned, when it is lost (the
// recovery scan rebuilds it from other nodes' copies, which hold no index of
// it), or when probes + F is not less than the partition's rows.

// indexRead is a filter's read of the scan directly below it through an
// index of one of the scan's columns.
type indexRead struct {
	// look reads partition p, stored in part, through its index: the probes
	// it makes and the rows it fetches, or nil rows when the probes alone
	// cost a whole read, so it fetches nothing.
	look func(p int, part *table.Partition) (probes int, rows *batch.RowSet, err error)
	// read holds, per partition read through the index, what the read
	// fetched; nil where the partition was read whole. A hedged or retried
	// scan unit stores the same rows again.
	read []atomic.Pointer[indexed]
}

// indexed is one partition's read through an index.
type indexed struct {
	rows   *batch.RowSet
	probes int
}

// readsIndex reports whether partition p, of stored rows, is read through
// an index whose read makes probes probes and fetches rows rows: p is not
// lost, and the read does less work than reading every row.
func (ex *executor) readsIndex(p, probes, rows, stored int) bool {
	return !ex.down[p] && probes+rows < stored
}

// keyedCol returns the scan runtime filter n reads through a key index and
// the table column it looks up, or nil: n's child must be a base-table scan
// and n's column carry a key index (catalog.Schema.KeyIndexed).
func (ex *executor) keyedCol(n *plan.RuntimeFilterNode) (*plan.ScanNode, int) {
	scan, ok := n.Child.(*plan.ScanNode)
	if !ok {
		return nil, -1
	}
	pt := ex.pdb.Tables[scan.Table]
	if pt == nil {
		return nil, -1
	}
	c, err := ex.rw.Schemas[scan].IndexOf(n.Col)
	if err != nil || c >= pt.Meta.NumCols() || !ex.pdb.Schema.KeyIndexed(pt.Meta, pt.Meta.Columns[c].Name) {
		return nil, -1
	}
	return scan, c
}

// keyedRead returns the scan runtime filter n reads through a key index and
// the read, which looks up on partition p the keys of sets[p], or nil.
func (ex *executor) keyedRead(n *plan.RuntimeFilterNode, sets []*batch.Int64Table) (*plan.ScanNode, *indexRead) {
	scan, col := ex.keyedCol(n)
	if scan == nil {
		return nil, nil
	}
	return scan, &indexRead{read: make([]atomic.Pointer[indexed], ex.n),
		look: func(p int, part *table.Partition) (int, *batch.RowSet, error) {
			keys := sets[p]
			if keys.Distinct() >= part.Len() {
				return keys.Distinct(), nil, nil
			}
			index, ok := part.KeyIndex(col, func(c []int64) any { return batch.BuildInt64Table(c) }).(*batch.Int64Table)
			if !ok {
				return 0, nil, fmt.Errorf("engine: %s: partition %d caches a foreign index on column %d", n, p, col)
			}
			return keys.Distinct(), index.Fetch(keys), nil
		}}
}

// dateRange is a range read's column, the closed range of values the
// filter's literal bounds keep there, and the filter's conjuncts the range
// does not decide.
type dateRange struct {
	col    int
	lo, hi int64
	rest   []plan.BoolExpr
}

// rangeCol returns the scan filter n reads through a sorted date index and
// the range it reads, or nil: n's child must be a base-table scan and n's
// predicate bound a DATE column of its table, one with no key index, with
// top-level literal comparisons. Of several such columns it reads the
// lowest.
func (ex *executor) rangeCol(n *plan.FilterNode) (*plan.ScanNode, dateRange) {
	scan, ok := n.Child.(*plan.ScanNode)
	if !ok {
		return nil, dateRange{}
	}
	pt := ex.pdb.Tables[scan.Table]
	if pt == nil {
		return nil, dateRange{}
	}
	sch := ex.rw.Schemas[scan]
	for c, col := range pt.Meta.Columns {
		if col.Kind != value.Date || c >= len(sch) || ex.pdb.Schema.KeyIndexed(pt.Meta, col.Name) {
			continue
		}
		if lo, hi, rest, ok := plan.LiteralRange(n.Pred, sch[c].Name); ok {
			return scan, dateRange{c, lo, hi, rest}
		}
	}
	return nil, dateRange{}
}

// rangeRead returns the scan filter n reads through a sorted date index, the
// read, which looks its range up there (one probe), and the conjuncts of n's
// predicate the range does not decide, which the rows it fetches must still
// satisfy. It returns nil when n reads no index.
func (ex *executor) rangeRead(n *plan.FilterNode) (*plan.ScanNode, *indexRead, []plan.BoolExpr) {
	scan, r := ex.rangeCol(n)
	if scan == nil {
		return nil, nil, nil
	}
	return scan, &indexRead{read: make([]atomic.Pointer[indexed], ex.n),
		look: func(p int, part *table.Partition) (int, *batch.RowSet, error) {
			index, ok := part.KeyIndex(r.col, func(v []int64) any { return batch.BuildSortedIndex(v) }).(*batch.SortedIndex)
			if !ok {
				return 0, nil, fmt.Errorf("engine: %s: partition %d caches a foreign index on column %d", n, p, r.col)
			}
			return 1, index.Range(r.lo, r.hi), nil
		}}, r.rest
}

// scanParts returns the partitions scan n reads, as a set, or nil when it
// reads them all.
func scanParts(n *plan.ScanNode) map[int]bool {
	if n.Prune == nil {
		return nil
	}
	keep := make(map[int]bool, len(n.Prune))
	for _, p := range n.Prune {
		keep[p] = true
	}
	return keep
}
