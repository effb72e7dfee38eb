// Write-path metering: the Loader is single-writer, so unlike the query
// cells these counters are plain fields mutated on the writer goroutine
// and read after the fact (tests, bench reports). They are intentionally
// not part of the per-query Totals — write amplification is a property
// of the store maintenance stream, not of any one query.
package trace

import "fmt"

// WriteMetrics accumulates physical-write accounting across batches
// applied by one Loader.
type WriteMetrics struct {
	// Batches counts committed write batches; each publishes exactly one
	// database epoch.
	Batches int64
	// LogicalInserts/Deletes/Updates count logical operations requested,
	// whether or not they committed on first attempt.
	LogicalInserts int64
	LogicalDeletes int64
	LogicalUpdates int64

	// StoredCopies counts physical row appends (PREF duplicates and
	// replicas included) performed by committed batches.
	StoredCopies int64
	// RemovedCopies counts physical copies deleted by committed batches.
	RemovedCopies int64
	// RewrittenCopies counts physical copies rewritten in place by
	// committed update batches.
	RewrittenCopies int64

	// IntentOps counts logical ops recorded in write intents (including
	// intents whose first apply crashed).
	IntentOps int64
	// Crashes counts injected write crashes taken.
	Crashes int64
	// IndexRaces counts injected partition-index invalidation races.
	IndexRaces int64
	// Replays counts intents re-applied by Recover.
	Replays int64
	// RolledBackRows counts torn head rows discarded by recovery
	// rollbacks.
	RolledBackRows int64
}

// Amplification returns the write amplification of the committed insert
// stream: stored physical copies per logical insert. Zero when no
// inserts committed.
func (m *WriteMetrics) Amplification() float64 {
	if m.LogicalInserts == 0 {
		return 0
	}
	return float64(m.StoredCopies) / float64(m.LogicalInserts)
}

// String renders a one-line summary for logs and bench notes.
func (m *WriteMetrics) String() string {
	return fmt.Sprintf(
		"batches=%d inserts=%d deletes=%d updates=%d copies=%d removed=%d rewritten=%d amp=%.2f crashes=%d replays=%d rolledback=%d",
		m.Batches, m.LogicalInserts, m.LogicalDeletes, m.LogicalUpdates,
		m.StoredCopies, m.RemovedCopies, m.RewrittenCopies, m.Amplification(),
		m.Crashes, m.Replays, m.RolledBackRows)
}
