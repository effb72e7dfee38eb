package cluster

import "pref/internal/table"

// Partition rebuild at the passing probe.
//
// Query-time recovery (internal/engine/recovery.go) reconstructs a lost
// partition's scan output from surviving PREF duplicates while a query
// is running — every degraded query re-pays that reconstruction. The
// rebuild generalizes it to ahead-of-time: when a down node passes its
// half-open probe, the probing query re-materializes the node's
// partitions from the same redundancy once, inside BeginQuery, and only
// then flips the node back to healthy. Queries admitted while the
// rebuild runs still route around the node (state recovering, not
// serving); the probing query and every query admitted after it use the
// node normally, with no recovery work at all.
//
// Simulation boundary: as in recoverScan, the lost partitions' manifests
// are read from the in-memory partitions (standing in for the off-node
// recovery catalog), and "re-materializing" means verifying that every
// stored tuple copy has an identical copy on a surviving serving node —
// the same per-version copy index (table.Version.Copies) recoverScan
// reads, against the serving set instead of a query's down set — and
// metering the copy-back volume. A row with no surviving copy makes
// the node unrecoverable: it stays down, marked lost, and is never
// probed again.

// rebuild re-materializes every partition of nodeID from surviving
// duplicate copies and applies the outcome. It takes c.mu only for the
// serving set and the outcome, not for the row scans. The data is the
// probing query's pinned epoch: a crashed batch's torn partitions are
// invisible here, so re-materialization always works from crash-consistent
// state.
func (c *Cluster) rebuild(snap *table.DBSnapshot, nodeID int) {
	c.mu.Lock()
	serving := table.NewPartSet(len(c.nodes))
	for i := range c.nodes {
		if s := c.nodes[i].state; (s == Healthy || s == Suspect) && i != nodeID {
			serving.Add(i)
		}
	}
	c.mu.Unlock()

	ok, rows, bytes := copyBack(snap, nodeID, serving)

	c.mu.Lock()
	defer c.mu.Unlock()
	n := &c.nodes[nodeID]
	if !ok {
		c.stats.FailedRebuilds++
		n.lost = true
		c.setState(nodeID, Down)
		return
	}
	c.stats.Rebuilds++
	c.stats.RebuiltRows += rows
	c.stats.RebuiltBytes += bytes
	n.recovered = true
	c.setState(nodeID, Healthy)
}

// copyBack reports whether every row snap stores on nodeID has a copy on
// a serving node, and the row/byte volume copied back. A nil snapshot
// holds no data: the node recovers with nothing to copy.
func copyBack(snap *table.DBSnapshot, nodeID int, serving table.PartSet) (ok bool, rows, bytes int64) {
	if snap == nil {
		return true, 0, 0
	}
	for _, v := range snap.Tables {
		if nodeID >= len(v.Parts) {
			continue
		}
		part := v.Parts[nodeID]
		n, width := part.Len(), part.Width()
		if n == 0 {
			continue
		}
		if v.Copies(width).Missing(nodeID, serving) > 0 {
			return false, 0, 0
		}
		rows += int64(n)
		bytes += int64(n) * int64(width) * 8
	}
	return true, rows, bytes
}
