package engine

import (
	"math/rand"
	"testing"

	"pref/internal/check"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/trace"
	"pref/internal/value"
)

// Differential tests holding the vectorized engine (vec.go) and the
// row-at-a-time reference engine to byte-identical behavior: same rows,
// same Stats, same traces, same fault-schedule consumption.

// sameRows compares two result row sets elementwise. reflect.DeepEqual is
// deliberately avoided: the engines may legitimately differ in nil-vs-empty
// slice representation, which DeepEqual treats as inequality.
func sameRows(a, b []value.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// buildVecScenario mirrors traceScenario's generator but returns the plan
// and an executor closure instead of executing, so both engines run the
// identical plan over the identical data. Nils mean the random combination
// is invalid (a generator miss, not a failure).
func buildVecScenario(t *testing.T, seed int64) (*plan.Rewritten, func(ExecOptions) (*Result, error)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := check.GenSchema(rng)
	cfg := check.GenConfig(rng, s)
	if cfg.Validate(s) != nil {
		return nil, nil
	}
	db := genData(rng, s)
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		return nil, nil
	}
	q := check.GenQuery(rng, s)
	rw, err := plan.Rewrite(q, s, cfg, plan.Options{})
	if err != nil {
		t.Fatalf("seed %d: rewrite failed: %v\n%s", seed, err, plan.Format(q))
	}
	return rw, func(opt ExecOptions) (*Result, error) {
		return ExecuteOpts(rw, pdb, opt)
	}
}

// assertEnginesAgree executes one scenario under both engines and fails
// unless rows, Stats, and (when traced) per-operator spans all match.
func assertEnginesAgree(t *testing.T, seed int64, rw *plan.Rewritten, exec func(ExecOptions) (*Result, error), opt ExecOptions) {
	t.Helper()
	opt.RowEngine = false
	vres, verr := exec(opt)
	opt.RowEngine = true
	rres, rerr := exec(opt)
	if (verr == nil) != (rerr == nil) {
		t.Fatalf("seed %d: engines disagree on failure: vec err=%v row err=%v", seed, verr, rerr)
	}
	if verr != nil {
		return // both failed identically-shaped fault schedules
	}
	// Aggregates emit in map-iteration order, which is nondeterministic even
	// between two runs of the same engine; normalise before comparing.
	vres.SortRows()
	rres.SortRows()
	if !sameRows(vres.Rows, rres.Rows) {
		t.Fatalf("seed %d: rows diverge: vec %d rows, row %d rows\nplan:\n%s",
			seed, len(vres.Rows), len(rres.Rows), rw.Explain())
	}
	if vres.Stats != rres.Stats {
		t.Fatalf("seed %d: stats diverge:\nvec %+v\nrow %+v\nplan:\n%s",
			seed, vres.Stats, rres.Stats, rw.Explain())
	}
	if vres.Trace != nil && rres.Trace != nil {
		if err := check.VerifyTrace(rw, vres.Trace); err != nil {
			t.Fatalf("seed %d: vectorized trace fails verification: %v\ntrace:\n%s",
				seed, err, vres.Trace.Render(trace.RenderOptions{}))
		}
		if vres.Trace.Totals != rres.Trace.Totals {
			t.Fatalf("seed %d: trace totals diverge:\nvec %+v\nrow %+v",
				seed, vres.Trace.Totals, rres.Trace.Totals)
		}
	}
}

// TestVecRowEquivalenceProperty is the engine-level differential oracle:
// random schema/design/query scenarios execute under both engines and must
// produce identical rows and identical telemetry.
func TestVecRowEquivalenceProperty(t *testing.T) {
	const rounds = 200
	executed := 0
	for seed := int64(0); seed < rounds; seed++ {
		rw, exec := buildVecScenario(t, seed)
		if exec == nil {
			continue
		}
		assertEnginesAgree(t, seed, rw, exec, ExecOptions{Trace: true})
		executed++
	}
	if executed < rounds/2 {
		t.Fatalf("only %d/%d seeds executed; generator is degenerate", executed, rounds)
	}
}

// TestVecRowEquivalenceUnderFaults re-runs the differential property with
// crash-retry and shipment-failure injection. Because the vectorized
// operators consume the deterministic operator sequence and meter the same
// row counts as their row twins, the injected fault schedule — including
// partial-batch ship retries — must hit both engines identically, down to
// Retries/WastedRows in Stats.
func TestVecRowEquivalenceUnderFaults(t *testing.T) {
	const rounds = 120
	executed := 0
	for seed := int64(0); seed < rounds; seed++ {
		rw, exec := buildVecScenario(t, seed)
		if exec == nil {
			continue
		}
		assertEnginesAgree(t, seed, rw, exec, ExecOptions{
			Trace: true,
			Fault: &fault.Policy{Seed: seed, CrashProb: 0.2, ShipFailProb: 0.2, MaxAttempts: 16},
		})
		executed++
	}
	if executed < rounds/3 {
		t.Fatalf("only %d/%d seeds executed; generator is degenerate", executed, rounds)
	}
}

// TestVecRowEquivalenceUnderNodeLoss adds node-down recovery: lost base
// partitions reconstruct through the row-based recovery path on both
// engines, and the vectorized scan must lift the recovered rows into
// batches without perturbing metering.
func TestVecRowEquivalenceUnderNodeLoss(t *testing.T) {
	const rounds = 120
	executed := 0
	for seed := int64(0); seed < rounds; seed++ {
		rw, exec := buildVecScenario(t, seed)
		if exec == nil {
			continue
		}
		assertEnginesAgree(t, seed, rw, exec, ExecOptions{
			Trace: true,
			Fault: &fault.Policy{Seed: seed, DownNodes: []int{1}, MaxAttempts: 8},
		})
		executed++
	}
	if executed < rounds/3 {
		t.Fatalf("only %d/%d seeds executed; generator is degenerate", executed, rounds)
	}
}

// TestRowEngineOptionSelectsRowPath pins ExecOptions.RowEngine, the one
// selector of the reference engine: its results equal the vectorized
// path's, and the row path really runs. The engines are byte-identical by
// design, so the test tells them apart by what a scan reads — the
// vectorized scan the partition's cached columnar projection, the row scan
// the stored tuples. A stored value overwritten in place once the
// projection is cached (which no program code may do to a published
// partition) is therefore visible through the row path only.
func TestRowEngineOptionSelectsRowPath(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["all-hashed"]
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := plan.Rewrite(plan.Scan("lineitem", "l"), db.Schema, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec := func(rowEngine bool) *Result {
		t.Helper()
		res, err := ExecuteOpts(rw, pdb, ExecOptions{RowEngine: rowEngine})
		if err != nil {
			t.Fatal(err)
		}
		res.SortRows()
		return res
	}
	vec, row := exec(false), exec(true)
	if !sameRows(vec.Rows, row.Rows) {
		t.Fatal("RowEngine option changed query results")
	}
	if vec.Stats != row.Stats {
		t.Fatalf("RowEngine option changed Stats:\nvec %+v\nrow %+v", vec.Stats, row.Stats)
	}

	const marker = int64(99) // qty is i%7, so 99 occurs nowhere else
	for _, part := range pdb.Tables["lineitem"].Snapshot().Parts {
		if part.Len() > 0 {
			part.Rows[0][2] = marker
			break
		}
	}
	seesMarker := func(res *Result) bool {
		for _, r := range res.Rows {
			if r[2] == marker {
				return true
			}
		}
		return false
	}
	if seesMarker(exec(false)) {
		t.Fatal("vectorized scan read stored tuples, not the cached projection: the marker cannot tell the paths apart")
	}
	if !seesMarker(exec(true)) {
		t.Fatal("RowEngine: true did not take the row path: the scan still read the columnar projection")
	}
}
