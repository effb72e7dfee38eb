package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pref/internal/batch"
	"pref/internal/check"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/trace"
	"pref/internal/value"
)

// Differential tests holding the product engine to the row reference
// (ref_test.go): same rows, same Stats, same traces, same fault-schedule
// consumption.

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
// and the partitioned data instead of executing, so the product and the
// reference run the identical plan over the identical data. Nils mean the
// random combination is invalid (a generator miss, not a failure).
func buildVecScenario(t *testing.T, seed int64, popt plan.Options) (*plan.Rewritten, *table.PartitionedDatabase) {
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
	rw, err := plan.Rewrite(q, s, cfg, popt)
	if err != nil {
		t.Fatalf("seed %d: rewrite failed: %v\n%s", seed, err, plan.Format(q))
	}
	return rw, pdb
}

// assertEnginesAgree executes one scenario on the product and on the
// reference and fails unless rows, Stats, and (when traced) per-operator
// spans all match. It returns the product's result, nil when both failed.
func assertEnginesAgree(t *testing.T, seed int64, rw *plan.Rewritten, pdb *table.PartitionedDatabase, opt ExecOptions) *Result {
	t.Helper()
	vres, verr := ExecuteCtx(context.Background(), rw, pdb, opt)
	rres, rerr := executeRef(context.Background(), rw, pdb, opt)
	requirePoolBalanced(t, fmt.Sprint("seed ", seed))
	if (verr == nil) != (rerr == nil) {
		t.Fatalf("seed %d: engines disagree on failure: vec err=%v row err=%v", seed, verr, rerr)
	}
	if verr != nil {
		return nil // both failed identically-shaped fault schedules
	}
	// The product emits groups in first-seen order and the reference in
	// map-iteration order; normalise before comparing.
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
	return vres
}

// requirePoolBalanced fails unless every pooled column the queries so far
// checked out is back in the pool: no operator leaked a batch, on any path,
// failed queries and fault-discarded unit outputs included.
func requirePoolBalanced(t testing.TB, what string) {
	t.Helper()
	if n := batch.Outstanding(); n != 0 {
		t.Fatalf("%s: %d pooled columns were never released", what, n)
	}
}

// rewriteRounds are the rewrite option sets the differential properties
// sweep: the default rewrite, and the dup index off, which is the only way
// a generated plan reaches DistinctByValue.
var rewriteRounds = []plan.Options{{}, {DisableDupIndex: true}}

// seamCoverage counts what the differential sweeps must reach to mean
// anything about the hand-off from a blocking operator — aggregation, top-k,
// distinct-by-value, which read their whole input before writing fresh
// batches — to the streaming operator above it: how often one feeds a
// streaming operator, by the kind of the blocking child, and the two
// generated shapes that put one there on purpose — a HAVING filter directly
// over an aggregate, and a join with an aggregate beneath one of its inputs.
type seamCoverage struct {
	overAgg, overTopK, overDistinct int
	having, aggJoin                 int
	// What the scans of lost partitions rebuilt, over every query of the
	// sweep that survived: tuple copies, and the bytes they shipped to the
	// buddy nodes.
	recoveredRows, recoveredBytes int64
	// Runtime join filters the plans place, and those of them that reach
	// their join through a semi or anti join, or come from one.
	transfers, semiAntiTransfers int
}

// blocking reports whether n reads its whole input before it emits a row.
func blocking(n plan.Node) bool {
	switch n.(type) {
	case *plan.AggregateNode, *plan.PartialAggNode, *plan.FinalAggNode,
		*plan.TopKNode, *plan.DistinctByValueNode:
		return true
	}
	return false
}

func (c *seamCoverage) add(rw *plan.Rewritten, res *Result) {
	if res != nil {
		c.recoveredRows += res.Stats.RecoveredRows
		res.Trace.Walk(func(op *trace.OpTrace) {
			if op.Kind == trace.KindScan {
				c.recoveredBytes += op.Totals.BytesShipped // a scan ships only what it recovers
			}
		})
	}
	// walk reports whether n's subtree holds an aggregate.
	var walk func(n, parent plan.Node) bool
	walk = func(n, parent plan.Node) bool {
		_, isTopK := n.(*plan.TopKNode)
		_, isDistinct := n.(*plan.DistinctByValueNode)
		agg := blocking(n) && !isTopK && !isDistinct
		if blocking(n) && parent != nil && !blocking(parent) {
			switch {
			case isTopK:
				c.overTopK++
			case isDistinct:
				c.overDistinct++
			default:
				c.overAgg++
				if _, ok := parent.(*plan.FilterNode); ok {
					c.having++
				}
			}
		}
		for _, ch := range n.Children() {
			if walk(ch, n) {
				agg = true
			}
		}
		if _, ok := n.(*plan.JoinNode); ok && agg {
			c.aggJoin++
		}
		return agg
	}
	walk(rw.Root, nil)

	var transfers func(n plan.Node, above []plan.Node)
	transfers = func(n plan.Node, above []plan.Node) {
		if f, ok := n.(*plan.RuntimeFilterNode); ok {
			c.transfers++
			for i := len(above) - 1; i >= 0; i-- {
				if j, ok := above[i].(*plan.JoinNode); ok && (j.Type == plan.Semi || j.Type == plan.Anti) {
					c.semiAntiTransfers++
					break
				}
				if above[i] == plan.Node(f.From) {
					break
				}
			}
		}
		for _, ch := range n.Children() {
			transfers(ch, append(above, n))
		}
	}
	transfers(rw.Root, nil)
}

// sweepEnginesAgree runs the differential check over seeds [0, rounds) for
// every rewrite option set in popts, with per-seed execution options, and
// fails if fewer than atLeast scenarios executed per option set.
func sweepEnginesAgree(t *testing.T, rounds, atLeast int, popts []plan.Options, eopt func(seed int64) ExecOptions) seamCoverage {
	t.Helper()
	var cov seamCoverage
	for _, popt := range popts {
		executed := 0
		for seed := int64(0); seed < int64(rounds); seed++ {
			rw, pdb := buildVecScenario(t, seed, popt)
			if rw == nil {
				continue
			}
			cov.add(rw, assertEnginesAgree(t, seed, rw, pdb, eopt(seed)))
			executed++
		}
		if executed < atLeast {
			t.Fatalf("only %d/%d seeds executed under %+v; generator is degenerate", executed, rounds, popt)
		}
	}
	return cov
}

// requireSeamCovered fails a sweep whose plans never put a streaming
// operator over one of the blocking kinds — it would pass without ever
// reading their output batches — or never place a runtime join filter, one
// that crosses a semi or anti join included.
func requireSeamCovered(t *testing.T, cov seamCoverage) {
	t.Helper()
	if cov.overAgg == 0 || cov.overTopK == 0 || cov.overDistinct == 0 || cov.having == 0 || cov.aggJoin == 0 {
		t.Fatalf("sweep did not run a streaming operator over every kind of blocking output: %+v", cov)
	}
	if cov.transfers == 0 || cov.semiAntiTransfers == 0 {
		t.Fatalf("sweep placed no runtime join filter, or none across a semi or anti join: %+v", cov)
	}
	t.Logf("seam coverage: %+v", cov)
}

// TestVecRowEquivalenceProperty is the engine-level differential oracle:
// random schema/design/query scenarios execute on the product and on the
// reference and must produce identical rows and identical telemetry.
func TestVecRowEquivalenceProperty(t *testing.T) {
	cov := sweepEnginesAgree(t, 200, 100, rewriteRounds, func(int64) ExecOptions {
		return ExecOptions{Trace: true}
	})
	requireSeamCovered(t, cov)
}

// TestVecRowEquivalenceUnderFaults re-runs the differential property with
// crash-retry and shipment-failure injection. Because the columnar
// operators consume the deterministic operator sequence and meter the same
// row counts as their row twins, the injected fault schedule — including
// partial-batch ship retries — must hit both identically, down to
// Retries/WastedRows in Stats.
func TestVecRowEquivalenceUnderFaults(t *testing.T) {
	cov := sweepEnginesAgree(t, 120, 40, rewriteRounds, func(seed int64) ExecOptions {
		return ExecOptions{
			Trace: true,
			Fault: &fault.Policy{Seed: seed, CrashProb: 0.2, ShipFailProb: 0.2, MaxAttempts: 16},
		}
	})
	requireSeamCovered(t, cov)
}

// TestVecRowEquivalenceUnderNodeLoss adds node-down recovery: lost base
// partitions reconstruct through recoverScan under both entries, and the
// product's scan of a recovered partition — the same column views a
// healthy one hands out — must meter exactly as the reference's row scan.
func TestVecRowEquivalenceUnderNodeLoss(t *testing.T) {
	cov := sweepEnginesAgree(t, 120, 40, rewriteRounds[:1], func(seed int64) ExecOptions {
		return ExecOptions{
			Trace: true,
			Fault: &fault.Policy{Seed: seed, DownNodes: []int{1}, MaxAttempts: 8},
		}
	})
	// Pinned from the row-based recovery scan these sweeps ran before the
	// scan of a lost partition handed out column views.
	if cov.recoveredRows != 723 || cov.recoveredBytes != 21064 {
		t.Fatalf("recovery metering moved: %d rows, %d bytes recovered over the sweep", cov.recoveredRows, cov.recoveredBytes)
	}
}

// TestReferenceRunsRowOperators pins that the differential harness compares
// two different things: executeRef really runs the row operators and the
// product entry never does. The two are byte-identical by design and read
// the same stored columns, so the test tells them apart by the reference
// dispatcher's own count of the nodes it ran. Without this pin a harness
// that ended up comparing the product with itself would still pass.
func TestReferenceRunsRowOperators(t *testing.T) {
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
	exec := func(run func(context.Context, *plan.Rewritten, *table.PartitionedDatabase, ExecOptions) (*Result, error)) (*Result, int64) {
		t.Helper()
		before := refNodes.Load()
		res, err := run(context.Background(), rw, pdb, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res.SortRows()
		return res, refNodes.Load() - before
	}
	vec, vecRefNodes := exec(ExecuteCtx)
	row, rowRefNodes := exec(executeRef)
	if !sameRows(vec.Rows, row.Rows) {
		t.Fatal("the reference answers differently from the product")
	}
	if vec.Stats != row.Stats {
		t.Fatalf("the reference meters differently from the product:\nvec %+v\nrow %+v", vec.Stats, row.Stats)
	}
	if vecRefNodes != 0 {
		t.Fatalf("a row operator ran on the product path: %d reference nodes", vecRefNodes)
	}
	if rowRefNodes == 0 {
		t.Fatal("executeRef did not run the row operators")
	}
}
