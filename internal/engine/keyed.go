package engine

import (
	"fmt"
	"math"
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
// of its own too (so lineitem.suppkey is indexed, though it leads no key).
//
// The Filter and RuntimeFilter nodes directly over a base-table scan form
// one filter stack (stackOf), and the engine reads the scan once for the
// whole stack. Each filter of the stack offers candidate reads:
//
//   - a runtime filter on a key column looks each of its K distinct keys (a
//     local filter's own source partition's, a shipped one's union over
//     every source partition) up in a key index of the partition's stored
//     column: K probes, keys(col);
//   - a DATE column with no key index that some Filter of the stack bounds
//     with top-level literal comparisons is looked up, over the intersection
//     of those bounds, in a sorted index of that column: one probe,
//     range(col).
//
// Either read fetches only the F rows the index names, in stored order. On
// each partition the stack takes the candidate with the least probes + F,
// the first on a tie. The index is storage, not query work: table.Partition
// builds it once per frozen partition, on first use, and the engine meters
// no build work, so Stats stay a function of the plan and the snapshot. The
// scan's work on such a partition is probes + F. Its row counts stay logical
// — it outputs the partition, and the stack's lowest filter counts the rows
// the index skipped as filtered, the only rows it counts so — so every trace
// conservation law holds as before; the scan's cell also counts the probes.
// Every filter of the stack then runs over the fetched rows, less what the
// read already decided: the runtime filter whose keys were read passes its
// rows on, and a Filter bounding the range read's column evaluates only its
// other conjuncts (plan.LiteralRange).
//
// A partition is read whole instead when it is pruned, when it is lost (the
// recovery scan rebuilds it from other nodes' copies, which hold no index of
// it), or when no candidate's probes + F is less than the partition's rows.

// A filterStack is the Filter and RuntimeFilter nodes directly over one
// base-table scan, top first.
type filterStack struct {
	nodes []plan.Node
	scan  *plan.ScanNode
}

// stackOf returns the filter stack whose top is n, or nil when n is not a
// filter over a chain of filters that ends at a scan.
func stackOf(n plan.Node) *filterStack {
	st := &filterStack{}
	for {
		switch x := n.(type) {
		case *plan.FilterNode:
			st.nodes, n = append(st.nodes, x), x.Child
		case *plan.RuntimeFilterNode:
			st.nodes, n = append(st.nodes, x), x.Child
		case *plan.ScanNode:
			if len(st.nodes) == 0 {
				return nil
			}
			st.scan = x
			return st
		default:
			return nil
		}
	}
}

// A readCand is one index read a filter stack may take of its scan.
type readCand struct {
	// label names the read in EXPLAIN ANALYZE: keys(col) or range(col).
	label string
	// rf is the runtime filter whose key sets a keyed read looks up; nil for
	// a range read, which reads [lo, hi] of column name.
	rf     *plan.RuntimeFilterNode
	name   string
	lo, hi int64
	// col is the stored column the index is built on.
	col int
	// look prices partition p's read, stored in part, through the index:
	// the probes it makes, the rows it fetches and fetch, which fetches
	// them; fetch is nil when the probes alone cost a whole read.
	look func(p int, part *table.Partition) (probes, rows int, fetch func() *batch.RowSet, err error)
}

// indexRead is a filter stack's read of its scan: its candidates and, per
// partition read through an index, what the read fetched; nil where the
// partition was read whole. A hedged or retried scan unit stores the same
// rows again.
type indexRead struct {
	cands []readCand
	read  []atomic.Pointer[indexed]
}

// indexed is one partition's read through an index: the candidate taken,
// its probes and the rows it fetched.
type indexed struct {
	cand   int
	rows   *batch.RowSet
	probes int
}

// readsIndex reports whether partition p, of stored rows, is read through
// an index whose read makes probes probes and fetches rows rows: p is not
// lost, and the read does less work than reading every row.
func (ex *executor) readsIndex(p, probes, rows, stored int) bool {
	return !ex.down[p] && probes+rows < stored
}

// choose reads partition p, stored in part, through the candidate that
// makes the least probes + fetched rows among those readsIndex admits, or
// returns nil to read it whole.
func (ex *executor) choose(ir *indexRead, p int, part *table.Partition) (*indexed, error) {
	best, bestProbes, work := -1, 0, 0
	var fetch func() *batch.RowSet
	for c, cand := range ir.cands {
		probes, rows, f, err := cand.look(p, part)
		if err != nil {
			return nil, err
		}
		if f == nil || !ex.readsIndex(p, probes, rows, part.Len()) {
			continue
		}
		if best < 0 || probes+rows < work {
			best, bestProbes, work, fetch = c, probes, probes+rows, f
		}
	}
	if best < 0 {
		return nil, nil
	}
	return &indexed{cand: best, rows: fetch(), probes: bestProbes}, nil
}

// stackRead returns the candidate reads of stack st, sets[i] holding the key
// sets of its runtime filter st.nodes[i], or nil when it has none: a keyed
// read for each runtime filter on a key-indexed column, lowest first, then
// a range read for each DATE column some Filter bounds, in column order.
func (ex *executor) stackRead(st *filterStack, sets [][]*batch.Int64Table) *indexRead {
	pt := ex.pdb.Tables[st.scan.Table]
	if pt == nil {
		return nil
	}
	sch := ex.rw.Schemas[st.scan]
	var cands []readCand
	for i := len(st.nodes) - 1; i >= 0; i-- {
		if rf, ok := st.nodes[i].(*plan.RuntimeFilterNode); ok {
			if c := ex.keyedCol(rf, st.scan); c >= 0 {
				cands = append(cands, keyedRead(rf, c, sets[i]))
			}
		}
	}
	for c, col := range pt.Meta.Columns {
		if col.Kind != value.Date || c >= len(sch) || ex.pdb.Schema.KeyIndexed(pt.Meta, col.Name) {
			continue
		}
		if lo, hi, ok := stackRange(st, sch[c].Name); ok {
			cands = append(cands, rangeRead(c, sch[c].Name, lo, hi))
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return &indexRead{cands: cands, read: make([]atomic.Pointer[indexed], ex.n)}
}

// keyedCol returns the stored column of the table scan reads that runtime
// filter n looks up through a key index, or -1 when n's column carries none
// (catalog.Schema.KeyIndexed).
func (ex *executor) keyedCol(n *plan.RuntimeFilterNode, scan *plan.ScanNode) int {
	pt := ex.pdb.Tables[scan.Table]
	if pt == nil {
		return -1
	}
	c, err := ex.rw.Schemas[scan].IndexOf(n.Col)
	if err != nil || c >= pt.Meta.NumCols() || !ex.pdb.Schema.KeyIndexed(pt.Meta, pt.Meta.Columns[c].Name) {
		return -1
	}
	return c
}

// stackRange intersects the literal bounds the stack's Filters put on
// column name; ok is false when none bounds it.
func stackRange(st *filterStack, name string) (lo, hi int64, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	for _, n := range st.nodes {
		if f, isFilter := n.(*plan.FilterNode); isFilter {
			if flo, fhi, _, found := plan.LiteralRange(f.Pred, name); found {
				lo, hi, ok = max(lo, flo), min(hi, fhi), true
			}
		}
	}
	return lo, hi, ok
}

// keyedRead is the read that looks up, on partition p, the keys of sets[p]
// in a key index of stored column col.
func keyedRead(n *plan.RuntimeFilterNode, col int, sets []*batch.Int64Table) readCand {
	return readCand{label: "keys(" + n.Col + ")", rf: n, col: col,
		look: func(p int, part *table.Partition) (int, int, func() *batch.RowSet, error) {
			keys := sets[p]
			if keys.Distinct() >= part.Len() {
				return keys.Distinct(), 0, nil, nil
			}
			index, ok := part.KeyIndex(col, func(c []int64) any { return batch.BuildInt64Table(c) }).(*batch.Int64Table)
			if !ok {
				return 0, 0, nil, fmt.Errorf("engine: %s: partition %d caches a foreign index on column %d", n, p, col)
			}
			rows := index.Fetch(keys) // counting the rows walks them anyway
			return keys.Distinct(), rows.Len(), func() *batch.RowSet { return rows }, nil
		}}
}

// rangeRead is the read that looks [lo, hi] up in a sorted index of stored
// column col, named name: one probe.
func rangeRead(col int, name string, lo, hi int64) readCand {
	return readCand{label: "range(" + name + ")", name: name, lo: lo, hi: hi, col: col,
		look: func(p int, part *table.Partition) (int, int, func() *batch.RowSet, error) {
			index, ok := part.KeyIndex(col, func(v []int64) any { return batch.BuildSortedIndex(v) }).(*batch.SortedIndex)
			if !ok {
				return 0, 0, nil, fmt.Errorf("engine: range(%s): partition %d caches a foreign index on column %d", name, p, col)
			}
			return 1, index.Count(lo, hi), func() *batch.RowSet { return index.Range(lo, hi) }, nil
		}}
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
