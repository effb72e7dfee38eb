// Fixture for the publishorder analyzer: no mutation of version-visible
// state may follow the atomic epoch store, which must sit where the body's
// statement order is its execution order. The bad shapes reproduce the
// publish-ordering race the chaos soak once caught, where shared[]
// bookkeeping ran after the store and a concurrent BeginWrite could
// observe the new version with stale clone flags.
package table

import (
	"sync"
	"sync/atomic"
)

type Version struct {
	Epoch int64
	Parts []int
}

type Partitioned struct {
	Parts  []int
	pub    atomic.Pointer[Version]
	pubMu  sync.Mutex
	shared []bool
}

// good publishes the way publishLocked does: every piece of bookkeeping
// completes before the store makes the version visible.
func (pt *Partitioned) good(epoch int64) {
	parts := make([]int, len(pt.Parts))
	copy(parts, pt.Parts)
	for i := range pt.shared {
		pt.shared[i] = true
	}
	pt.pub.Store(&Version{Epoch: epoch, Parts: parts})
}

// raced is the PR 6 pre-fix shape: the store fires first, then the
// shared[] flags are rewritten while readers may already hold the new
// version.
func (pt *Partitioned) raced(epoch int64) {
	parts := make([]int, len(pt.Parts))
	copy(parts, pt.Parts)
	pt.pub.Store(&Version{Epoch: epoch, Parts: parts})
	for i := range pt.shared {
		pt.shared[i] = true // want "mutation of version-visible state after the atomic epoch publish"
	}
}

// publishedValue mutates the Version object it just made visible — the
// same race through the other alias.
func (pt *Partitioned) publishedValue(epoch int64) {
	v := &Version{Epoch: epoch}
	pt.pub.Store(v)
	v.Parts = pt.Parts // want "mutation of version-visible state after the atomic epoch publish"
}

// onePath only races on the error path; the branch follows the store,
// so it is still found.
func (pt *Partitioned) onePath(epoch int64, dirty bool) {
	parts := make([]int, len(pt.Parts))
	copy(parts, pt.Parts)
	pt.pub.Store(&Version{Epoch: epoch, Parts: parts})
	if dirty {
		pt.shared[0] = false // want "mutation of version-visible state after the atomic epoch publish"
	}
}

// doublePublish stores twice in one function; the second store republishes
// an epoch readers may already have pinned.
func (pt *Partitioned) doublePublish(epoch int64) {
	pt.pub.Store(&Version{Epoch: epoch})
	pt.pub.Store(&Version{Epoch: epoch + 1}) // want "second atomic publish"
}

// nested publishes inside a branch: the statements after it in the body
// are no longer all that runs after it, so the shape alone is reported.
func (pt *Partitioned) nested(epoch int64, dirty bool) {
	if dirty {
		pt.pub.Store(&Version{Epoch: epoch}) // want "must be a top-level statement"
	}
}

// jumped publishes at the top level, but a goto can carry control from
// below the store back above it.
func (pt *Partitioned) jumped(epoch int64) {
again:
	pt.shared[0] = true
	pt.pub.Store(&Version{Epoch: epoch}) // want "must be a top-level statement"
	if epoch < 0 {
		epoch = 0
		goto again
	}
}

// suppressed demonstrates the line-level escape hatch.
func (pt *Partitioned) suppressed(epoch int64) {
	pt.pub.Store(&Version{Epoch: epoch})
	//lint:ignore publishorder fixture demonstrates suppression
	pt.shared[0] = true
}

// locals may rebind freely after a store: only shared state counts.
func (pt *Partitioned) localsAfterStore(epoch int64) int {
	n := 0
	pt.pub.Store(&Version{Epoch: epoch})
	n = len(pt.Parts)
	n++
	return n
}
