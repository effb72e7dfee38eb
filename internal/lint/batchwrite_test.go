package lint

import "testing"

// TestBatchOwnershipFixtures pins the batch-write rule: writes through a
// batch, directly or through a local view of its columns or selection
// vector, are reported; reads, rebinding and copies are not.
func TestBatchOwnershipFixtures(t *testing.T) { runWantDir(t, BatchWrite) }
