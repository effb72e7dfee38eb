package engine

import (
	"pref/internal/fault"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/trace"
	"pref/internal/value"
)

// PREF-redundancy recovery.
//
// The PREF scheme's correctness mechanism — duplicating referencing tuples
// so joins stay local — doubles as a recovery source: a tuple copy lost
// with its node often exists verbatim on surviving nodes, either as a PREF
// duplicate (the tuple had partitioning partners on several partitions) or
// as a replica (REPLICATED tables). recoverScan exploits that: when the
// node holding base partition p is permanently failed, it reconstructs p's
// scan output on the buddy node from identical copies held by survivors.
//
// Simulation boundary: the lost partition's manifest — which tuple copies
// it held, with their dup/hasRef bits — is read from the in-memory
// partition, standing in for the recovery catalog a real deployment keeps
// off-node (cf. the Section 2.3 partition index, which maps referenced
// values to partition sets and is exactly what a coordinator would replay
// to learn p's content). The recovered *bytes* themselves must all be
// present on surviving partitions: any row without a surviving identical
// copy makes the partition unrecoverable and the query fails with a
// well-typed *fault.PartitionLostError.

// recoverScan reconstructs the scan output of lost partition p of pt, read
// at version v, from surviving duplicate copies. Which partitions hold a
// copy of each row is a fact of the version (v.Copies, built once per
// published version); the query's down set only decides, here, which of
// those copies are reachable. All recovered rows are shipped from survivors
// to the buddy node and metered; RecoveredRows counts them. Unrecoverable
// content returns *fault.PartitionLostError.
//
// lint:ship-boundary recovery path: rebuilt rows are shipped from surviving
// partitions to the buddy node and metered on the scan's cells.
func (ex *executor) recoverScan(top *trace.Op, pt *table.Partitioned, v *table.Version, p int, sch plan.Schema) ([]value.Tuple, error) {
	alive := table.NewPartSet(len(v.Parts))
	for q := range v.Parts {
		if !ex.down[q] {
			alive.Add(q)
		}
	}
	if missing := v.Copies(pt.Meta.NumCols()).Missing(p, alive); missing > 0 {
		return nil, &fault.PartitionLostError{
			Table: pt.Meta.Name, Partition: p, MissingRows: missing,
		}
	}
	part := v.Parts[p]
	rows := scanRows(part, scanHasIndexes(sch))
	en := ex.execDst[p]
	top.AddRecovered(en, len(part.Rows))
	top.AddShip(en, len(rows), len(sch)) // survivors → buddy node
	return rows, nil
}
