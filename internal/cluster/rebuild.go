package cluster

import "pref/internal/table"

// Background partition rebuild.
//
// Query-time recovery (internal/engine/recovery.go) reconstructs a lost
// partition's scan output from surviving PREF duplicates while a query
// is running — every degraded query re-pays that reconstruction. The
// rebuild worker generalizes it to ahead-of-time: when a down node
// passes its half-open probe, the worker re-materializes the node's
// partitions from the same redundancy once, in the background, and only
// then flips the node back to healthy. Queries admitted while the
// rebuild runs still route around the node (state recovering, not
// serving); queries admitted after it completes use the node normally,
// with no recovery work at all.
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

// RebuildSource pins the latest published epoch of the cluster's data
// (PartitionedDatabase.Snapshot). It is all the cluster holds of the data,
// so both queries and rebuilds can only read pinned versions, never the
// writer's head.
type RebuildSource = func() *table.DBSnapshot

// rebuildJob asks the worker to re-materialize one node's partitions.
type rebuildJob struct {
	node int
	src  RebuildSource
}

// enqueueRebuild hands a freshly probed node to the background worker.
// Callers hold c.mu. With no rebuild source the node recovers
// immediately: there is nothing to re-materialize.
func (c *Cluster) enqueueRebuild(nodeID int, src RebuildSource) {
	if src == nil {
		c.finishRecoveryLocked(nodeID, true, 0, 0)
		return
	}
	c.pending++
	// The buffer holds one job per node and a node enqueues only on its
	// single down → recovering transition, so this send cannot block.
	c.jobs <- rebuildJob{node: nodeID, src: src}
}

// finishRecoveryLocked applies a rebuild outcome to the node's state.
// Callers hold c.mu.
func (c *Cluster) finishRecoveryLocked(nodeID int, ok bool, rows, bytes int64) {
	n := &c.nodes[nodeID]
	if ok {
		c.stats.Rebuilds++
		c.stats.RebuiltRows += rows
		c.stats.RebuiltBytes += bytes
		n.recovered = true
		n.consecFails = 0
		c.setState(nodeID, Healthy)
		return
	}
	c.stats.FailedRebuilds++
	n.lost = true
	c.setState(nodeID, Down)
}

// rebuildWorker is the cluster's long-lived background goroutine: it
// drains rebuild jobs until Close cancels the cluster context.
func (c *Cluster) rebuildWorker() {
	defer c.wg.Done()
	for {
		select {
		case <-c.ctx.Done():
			return
		case job := <-c.jobs:
			ok, rows, bytes := c.rebuild(job)
			c.mu.Lock()
			c.finishRecoveryLocked(job.node, ok, rows, bytes)
			c.pending--
			if c.pending == 0 {
				c.idle.Broadcast()
			}
			c.mu.Unlock()
		}
	}
}

// rebuild re-materializes every partition of job.node from surviving
// duplicate copies, returning whether the node is fully recoverable and
// the recovered row/byte volume. It runs on the worker goroutine and
// takes c.mu only for the serving snapshot, not for the row scans. The
// data is the epoch the source pins when the job runs: a crashed batch's
// torn partitions are invisible here, so re-materialization always works
// from crash-consistent state.
func (c *Cluster) rebuild(job rebuildJob) (ok bool, rows, bytes int64) {
	c.mu.Lock()
	serving := table.NewPartSet(len(c.nodes))
	for i := range c.nodes {
		if s := c.nodes[i].state; (s == Healthy || s == Suspect) && i != job.node {
			serving.Add(i)
		}
	}
	c.mu.Unlock()

	for _, v := range job.src().Tables {
		if c.ctx.Err() != nil {
			return false, 0, 0
		}
		if job.node >= len(v.Parts) {
			continue
		}
		part := v.Parts[job.node]
		n, width := part.Len(), part.Width()
		if n == 0 {
			continue
		}
		if v.Copies(width).Missing(job.node, serving) > 0 {
			return false, 0, 0
		}
		rows += int64(n)
		bytes += int64(n) * int64(width) * 8
	}
	return true, rows, bytes
}

// WaitRebuilds blocks until no rebuild jobs are pending. Tests use it to
// make the background worker deterministic; it returns immediately on a
// nil or closed cluster.
func (c *Cluster) WaitRebuilds() {
	if c == nil {
		return
	}
	c.mu.Lock()
	for c.pending > 0 && !c.closed {
		c.idle.Wait()
	}
	c.mu.Unlock()
}
