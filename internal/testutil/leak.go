// Package testutil holds helpers shared by the repo's test suites. The one
// soak harness, TestSoak in internal/engine, runs its read, write and serve
// workloads one seed at a time, and each seed ends with the same contract —
// every goroutine the seed spawned must be gone once its last query drains
// — so the harness calls the leak checker here once per seed, as two of
// internal/serve's tests do once each.
package testutil

import (
	"runtime"
	"time"

	"testing"
)

// leakSettle is how long CheckGoroutineLeaks waits for goroutine counts to
// settle before declaring a leak. Loser goroutines of hedge races and
// cancelled units unwind asynchronously after their query returns; the
// settle window absorbs that without hiding a genuine leak (a leaked
// goroutine never exits, so no window length would save it).
const leakSettle = 2 * time.Second

// CheckGoroutineLeaks snapshots the current goroutine count and returns a
// verify function for the end of the test: it polls until the count
// settles back to the snapshot (or leakSettle expires) and fails the test
// if goroutines remain. Call it before spawning any work:
//
//	verify := testutil.CheckGoroutineLeaks(t)
//	... soak ...
//	verify()
func CheckGoroutineLeaks(t testing.TB) func() {
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(leakSettle)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("goroutines leaked: %d before, %d after settle", before, g)
		}
	}
}
