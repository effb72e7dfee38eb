package engine

import (
	"pref/internal/fault"
	"pref/internal/table"
	"pref/internal/trace"
)

// PREF-redundancy recovery.
//
// The PREF scheme's correctness mechanism — duplicating referencing tuples
// so joins stay local — doubles as a recovery source: a tuple copy lost
// with its node often exists verbatim on surviving nodes, either as a PREF
// duplicate (the tuple had partitioning partners on several partitions) or
// as a replica (REPLICATED tables). The scan exploits that: when the node
// holding base partition p is permanently failed, p's scan output is
// reconstructed on the buddy node from identical copies held by survivors.
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

// recoverScan admits and meters the reconstruction of lost partition p of
// pt, read at version v, from surviving duplicate copies; the scan then
// reads p's content — the manifest, across the simulation boundary above —
// in the same form as a healthy partition's. Which partitions hold a copy of
// each row is a fact of the version (v.Copies, built once per published
// version); the query's down set only decides, here, which of those copies
// are reachable. All recovered rows are shipped from survivors to the buddy
// node at the scan's width and metered; RecoveredRows counts them.
// Unrecoverable content returns *fault.PartitionLostError.
func (ex *executor) recoverScan(top *trace.Op, pt *table.Partitioned, v *table.Version, p, width int) error {
	alive := table.NewPartSet(len(v.Parts))
	for q := range v.Parts {
		if !ex.down[q] {
			alive.Add(q)
		}
	}
	if missing := v.Copies(pt.Meta.NumCols()).Missing(p, alive); missing > 0 {
		return &fault.PartitionLostError{
			Table: pt.Meta.Name, Partition: p, MissingRows: missing,
		}
	}
	en, rows := ex.execDst[p], v.Parts[p].Len()
	top.AddRecovered(en, rows)
	top.AddShip(en, rows, int64(rows)*int64(width)*8) // survivors → buddy node
	return nil
}
