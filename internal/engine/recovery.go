package engine

import (
	"pref/internal/fault"
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

// recoverScan reconstructs the scan output of lost partition p of pt from
// surviving duplicate copies. All recovered rows are shipped from
// survivors to the buddy node and metered; RecoveredRows counts them. Unrecoverable content returns *fault.PartitionLostError.
//
// lint:ship-boundary recovery path: rebuilt rows are shipped from surviving
// partitions to the buddy node and metered on the scan's cells.
func (ex *executor) recoverScan(top *trace.Op, pt *table.Partitioned, parts []*table.Partition, p int, withIndexes bool, width int) ([]value.Tuple, error) {
	surv := ex.survivorIndex(pt, parts)
	part := parts[p]
	allCols := make([]int, pt.Meta.NumCols())
	for i := range allCols {
		allCols[i] = i
	}
	missing := 0
	for _, r := range part.Rows {
		if !surv[value.MakeKey(r, allCols)] {
			missing++
		}
	}
	if missing > 0 {
		return nil, &fault.PartitionLostError{
			Table: pt.Meta.Name, Partition: p, MissingRows: missing,
		}
	}
	rows := scanRows(part, withIndexes)
	en := ex.execDst[p]
	top.AddRecovered(en, len(part.Rows))
	top.AddShip(en, len(rows), width) // survivors → buddy node
	return rows, nil
}

// survivorIndex returns the set of full-row contents of pt (read at the
// query's pinned snapshot) stored on partitions whose nodes survive,
// cached per table (the down set and snapshot are fixed for the whole
// query). With a cluster attached the cache lives there instead, keyed
// by table, effective down set, and data epoch — invalidated on
// health-epoch change and on data-epoch mismatch, so degraded queries
// between two transitions share one survivor sweep while never reading
// an index built over a different epoch's copies. Called from
// concurrent scan units.
//
// lint:ship-boundary recovery path: scans every surviving partition to index
// redundant copies; read-only, no rows move.
func (ex *executor) survivorIndex(pt *table.Partitioned, parts []*table.Partition) map[value.Key]bool {
	name := pt.Meta.Name
	if ex.cl != nil {
		// ex.down is immutable for the whole query, so building outside
		// ex.mu is safe; the cluster cache does its own locking.
		return ex.cl.SurvivorIndex(name, downKey(ex.down), ex.epoch(), func() map[value.Key]bool {
			return buildSurvivorIndex(pt, parts, ex.down)
		})
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if idx, ok := ex.survIdx[name]; ok {
		return idx
	}
	idx := buildSurvivorIndex(pt, parts, ex.down)
	if ex.survIdx == nil {
		ex.survIdx = make(map[string]map[value.Key]bool)
	}
	ex.survIdx[name] = idx
	return idx
}

// buildSurvivorIndex sweeps the snapshot partitions on surviving nodes
// and indexes their full-row contents.
//
// lint:ship-boundary recovery path: reads every surviving partition's rows;
// read-only, no rows move.
func buildSurvivorIndex(pt *table.Partitioned, parts []*table.Partition, down []bool) map[value.Key]bool {
	allCols := make([]int, pt.Meta.NumCols())
	for i := range allCols {
		allCols[i] = i
	}
	idx := make(map[value.Key]bool)
	for q, part := range parts {
		if q < len(down) && down[q] {
			continue
		}
		for _, r := range part.Rows {
			idx[value.MakeKey(r, allCols)] = true
		}
	}
	return idx
}
