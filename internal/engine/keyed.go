package engine

import (
	"sync/atomic"

	"pref/internal/batch"
	"pref/internal/plan"
)

// Keyed reads.
//
// A node of the paper's cluster ran MySQL, whose InnoDB keeps an index on
// every primary key and every foreign key. A local runtime filter directly
// over a base-table scan of such a key column reads the scan through one: on
// partition p it looks each of the filter's K distinct keys up in an index of
// the partition's stored column and fetches the F rows they name, in stored
// order, instead of reading every row. The index is storage, not query work:
// table.Partition builds it once per frozen partition, on first use, and the
// engine meters no build work, so Stats stay a function of the plan and the
// snapshot. The scan's work on such a partition is K + F. Its row counts stay
// logical — it outputs the partition, and the filter above drops what the
// fetch skipped, as it drops what it filters — so every trace conservation
// law holds as before; the scan's cell also counts the K probes.
//
// A partition is read whole instead when it is pruned, when it is lost (the
// recovery scan rebuilds it from other nodes' copies, which hold no index of
// it), or when the filter has at least as many keys as the partition rows.

// keyedRead is a local filter's read of the scan below it through a key
// index.
type keyedRead struct {
	col  int                 // the indexed table column
	sets []*batch.Int64Table // the filter's exact key sets, per partition
	// fetched holds, per partition read through the index, the rows the
	// fetch kept; nil where the partition was read whole. A hedged or
	// retried scan unit stores the same rows again.
	fetched []atomic.Pointer[batch.RowSet]
}

// keyedCol returns the scan local filter n reads through a key index and the
// table column it looks up, or nil: n's child must be a base-table scan and
// n's column lead the table's primary key or one of its declared foreign
// keys, the columns InnoDB indexes.
func (ex *executor) keyedCol(n *plan.RuntimeFilterNode) (*plan.ScanNode, int) {
	scan, ok := n.Child.(*plan.ScanNode)
	if !n.Local || !ok {
		return nil, -1
	}
	pt := ex.pdb.Tables[scan.Table]
	if pt == nil {
		return nil, -1
	}
	c, err := ex.rw.Schemas[scan].IndexOf(n.Col)
	if err != nil || c >= pt.Meta.NumCols() {
		return nil, -1
	}
	name := pt.Meta.Columns[c].Name
	if len(pt.Meta.PK) > 0 && pt.Meta.PK[0] == name {
		return scan, c
	}
	for _, fk := range ex.pdb.Schema.FKs {
		if fk.FromTable == scan.Table && fk.FromCols[0] == name {
			return scan, c
		}
	}
	return nil, -1
}

// keyedPart reports whether a keyed scan reads partition p, of rows stored
// rows, through the index for a filter of k distinct keys: p is neither
// pruned (keep, nil when nothing is) nor lost, and k < rows.
func (ex *executor) keyedPart(keep map[int]bool, p, k, rows int) bool {
	return (keep == nil || keep[p]) && !ex.down[p] && k < rows
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
