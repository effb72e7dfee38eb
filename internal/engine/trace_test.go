package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/trace"
	"pref/internal/value"
)

// genData fills a generated schema with random rows: the PK column is
// sequential (unique), every other column draws from a small domain so
// random equi-joins actually match and PREF chains produce both
// referenced and orphaned tuples.
func genData(rng *rand.Rand, s *catalog.Schema) *table.Database {
	db := table.NewDatabase(s)
	for _, t := range s.Tables() {
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			row := make(value.Tuple, t.NumCols())
			row[0] = int64(i)
			for c := 1; c < t.NumCols(); c++ {
				row[c] = int64(rng.Intn(20))
			}
			if err := db.Tables[t.Name].Append(row); err != nil {
				panic(err) // lint:invariant — arity fixed by construction
			}
		}
	}
	return db
}

// traceScenario runs one generated scenario with Trace off and then on
// and returns the traced result, or nil when the random design/query
// combination is invalid (rejected configs, rewrite limitations) — those
// are generator misses, not failures. Trace only selects whether the tree
// is assembled, so the two runs must agree on rows and on every Stats
// field.
func traceScenario(t *testing.T, seed int64, eopt ExecOptions) *Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := check.GenSchema(rng)
	cfg := check.GenConfig(rng, s)
	if cfg.Validate(s) != nil {
		return nil
	}
	db := genData(rng, s)
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		return nil
	}
	q := check.GenQuery(rng, s)
	rw, err := plan.Rewrite(q, s, cfg, plan.Options{})
	if err != nil {
		t.Fatalf("seed %d: rewrite failed: %v\n%s", seed, err, plan.Format(q))
	}
	off, err := ExecuteCtx(context.Background(), rw, pdb, eopt)
	if err != nil {
		t.Fatalf("seed %d: untraced execute failed: %v\nplan:\n%s", seed, err, rw.Explain())
	}
	if off.Trace != nil {
		t.Fatalf("seed %d: Trace not requested but assembled", seed)
	}
	eopt.Trace = true
	res, err := ExecuteCtx(context.Background(), rw, pdb, eopt)
	if err != nil {
		t.Fatalf("seed %d: execute failed: %v\nplan:\n%s", seed, err, rw.Explain())
	}
	if res.Trace == nil {
		t.Fatalf("seed %d: Trace requested but nil", seed)
	}
	if off.Stats != res.Stats {
		t.Fatalf("seed %d: Stats differ with Trace off and on:\noff %+v\non  %+v", seed, off.Stats, res.Stats)
	}
	off.SortRows()
	res.SortRows()
	if !reflect.DeepEqual(off.Rows, res.Rows) {
		t.Fatalf("seed %d: rows differ with Trace off and on:\noff %v\non  %v", seed, trunc(off.Rows), trunc(res.Rows))
	}
	if err := check.VerifyTrace(rw, res.Trace); err != nil {
		t.Fatalf("seed %d: trace fails verification: %v\nplan:\n%s\ntrace:\n%s",
			seed, err, rw.Explain(), res.Trace.Render(trace.RenderOptions{}))
	}
	return res
}

// TestTraceInvariantsProperty is the runtime analogue of the checker's
// static fuzz suite: random schema/design/query scenarios execute with
// tracing off and on, the two runs must agree (traceScenario), and every
// finished trace must satisfy the conservation, ship-legality, and
// stats-sum laws of check.VerifyTrace.
func TestTraceInvariantsProperty(t *testing.T) {
	const rounds = 250
	executed := 0
	for seed := int64(0); seed < rounds; seed++ {
		res := traceScenario(t, seed, ExecOptions{})
		if res == nil {
			continue
		}
		executed++
	}
	if executed < rounds/2 {
		t.Fatalf("only %d/%d seeds executed; generator is degenerate", executed, rounds)
	}
}

// TestTraceInvariantsUnderFaults re-runs the property with crash-retry
// and ship-failure injection: wasted attempts, re-shipments, and retry
// counters must stay conserved, and Stats must not depend on Trace.
func TestTraceInvariantsUnderFaults(t *testing.T) {
	const rounds = 120
	executed := 0
	for seed := int64(0); seed < rounds; seed++ {
		res := traceScenario(t, seed, ExecOptions{
			Fault: &fault.Policy{Seed: seed, CrashProb: 0.2, ShipFailProb: 0.2, MaxAttempts: 16},
		})
		if res == nil {
			continue
		}
		executed++
	}
	if executed < rounds/3 {
		t.Fatalf("only %d/%d seeds executed; generator is degenerate", executed, rounds)
	}
}

// TestVerifyAloneLeavesTraceNil: Verify assembles the tree to run the
// runtime cross-check off the always-recorded cells, but only Trace
// publishes it on the Result.
func TestVerifyAloneLeavesTraceNil(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["all-hashed"]
	mk := faultQueries()["filter-project"]
	plain, err := runOnOpts(t, mk, db, cfg, plan.Options{}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOnOpts(t, mk, db, cfg, plan.Options{}, ExecOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("Verify without Trace must not publish a trace")
	}
	if res.Stats != plain.Stats {
		t.Fatalf("Stats differ under Verify:\nplain  %+v\nverify %+v", plain.Stats, res.Stats)
	}
}
