package bench

import (
	"testing"

	"pref/internal/batch"
	"pref/internal/testutil"
)

// TestWriteChaosSoak is the crash-during-write satellite: at least 100
// seeded crash schedules, each racing a crash-injected write stream
// against 4 concurrent readers. Every reader result must be oracle-equal
// at its pinned epoch (or a typed failure), every crash must recover to
// a store that passes the full write-invariant check, and no goroutines
// may leak.
func TestWriteChaosSoak(t *testing.T) {
	schedules := 100
	if testing.Short() {
		schedules = 12
	}
	verifyLeaks := testutil.CheckGoroutineLeaks(t)
	var crashes, recoveries, queries int
	var replays int64
	for sch := 0; sch < schedules; sch++ {
		// Sweep the crash regime with the seed so schedules cover
		// crash-free, moderate, and crash-heavy streams, a third of them
		// with read-side node faults layered on top.
		mp := mixedParams{
			Seed:       int64(5000 + sch),
			Parts:      4,
			Batches:    30,
			Readers:    4,
			CrashProb:  float64(sch%4) * 0.25,
			RaceProb:   float64(sch%3) * 0.15,
			ReadFaults: sch%3 == 2,
		}
		out, err := runMixedSchedule(mp)
		if err != nil {
			t.Fatalf("schedule %d (crash=%.2f race=%.2f readFaults=%v): %v",
				sch, mp.CrashProb, mp.RaceProb, mp.ReadFaults, err)
		}
		if out.Crashes != out.Recoveries {
			t.Fatalf("schedule %d: %d crashes but %d recoveries", sch, out.Crashes, out.Recoveries)
		}
		if out.Queries < int64(mp.Readers) {
			t.Fatalf("schedule %d: only %d queries raced the stream", sch, out.Queries)
		}
		if out.OKQueries+out.TypedFails != out.Queries {
			t.Fatalf("schedule %d: %d queries but %d ok + %d typed",
				sch, out.Queries, out.OKQueries, out.TypedFails)
		}
		// Drained: every pooled batch the schedule's readers wrote is back
		// in the pool, crashed and typed-failed queries' included.
		if n := batch.Outstanding(); n != 0 {
			t.Fatalf("schedule %d: %d pooled columns were never released", sch, n)
		}
		if out.WriteAmp < 1 {
			t.Fatalf("schedule %d: write amplification %.2f < 1", sch, out.WriteAmp)
		}
		crashes += out.Crashes
		recoveries += out.Recoveries
		replays += out.Replays
		queries += int(out.Queries)
	}
	if crashes == 0 || replays == 0 {
		t.Fatalf("soak injected no crashes (crashes=%d replays=%d): the schedule sweep is broken",
			crashes, replays)
	}
	t.Logf("soak: %d schedules, %d crashes recovered (%d intent replays), %d racing queries",
		schedules, crashes, replays, queries)
	verifyLeaks()
}
