package engine

import (
	"context"
	"errors"
	"testing"

	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/trace"
)

// Error paths above pooled batches: a projection that fails after its join
// input was written, and a scatter that fails with its writers half full.
// evalVec releases an operator's inputs however it returns; each test fails
// a query and requires the pool balanced after.

// evalFailing evaluates rw's root on a hand-built executor under pol (nil:
// fault-free) and returns the error it must fail with. It bypasses
// executeCtx so that PREF_VERIFY's static check, which may reject the
// hand-edited plans below before they run, cannot make the tests pass
// vacuously.
func evalFailing(t *testing.T, rw *plan.Rewritten, cfg *partition.Config, pol *fault.Policy) error {
	t.Helper()
	pdb, err := partition.Apply(testDB(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	requirePoolBalanced(t, "before the query")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex := &executor{
		rw: rw, pdb: pdb, n: pdb.N, ctx: ctx, cancel: cancel,
		execDst: make([]int, pdb.N), down: make([]bool, pdb.N), tb: trace.NewBuilder(pdb.N, 0),
	}
	for p := range ex.execDst {
		ex.execDst[p] = p
	}
	if pol != nil {
		ex.inj = fault.NewInjector(*pol)
	}
	_, err = ex.evalVec(rw.Root)
	if err == nil {
		ex.owed.release()
		t.Fatal("the query succeeded; it must fail")
	}
	return err
}

// TestFailedProjectReleasesJoinOutput: a projection whose expression does
// not compile fails after its input, a local join's fresh output, was
// written.
func TestFailedProjectReleasesJoinOutput(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["pref-chain"]
	j := plan.Join(plan.Scan("lineitem", "l"), plan.Scan("orders", "o"),
		plan.Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
	rw, err := plan.Rewrite(plan.ProjectCols(j, "l.linekey", "o.custkey"), db.Schema, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	proj, ok := rw.Root.(*plan.ProjectNode)
	if !ok {
		t.Fatalf("root is %T, want the projection:\n%s", rw.Root, rw.Explain())
	}
	if _, ok := proj.Child.(*plan.JoinNode); !ok {
		t.Fatalf("the projection reads %T, want the local join:\n%s", proj.Child, rw.Explain())
	}
	proj.Exprs[0] = plan.Col("l.nosuch")
	err = evalFailing(t, rw, cfg, nil)
	t.Logf("failed as planted: %v", err)
	requirePoolBalanced(t, "after the failed query")
}

// TestFailedScatterReleasesWriters: a repartition whose shipment fails
// mid-scatter, over a projection's fresh output, after the writers of its
// destinations took rows.
func TestFailedScatterReleasesWriters(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["all-hashed"]
	rw, err := plan.Rewrite(plan.ProjectCols(plan.Scan("lineitem", "l"), "l.orderkey", "l.qty"),
		db.Schema, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rw.Root.(*plan.ProjectNode); !ok {
		t.Fatalf("root is %T, want the projection:\n%s", rw.Root, rw.Explain())
	}
	rep := &plan.RepartitionNode{Child: rw.Root, Cols: []string{"l.orderkey"}}
	rw.Schemas[rep] = rw.Schemas[rw.Root]
	rw.Root = rep
	err = evalFailing(t, rw, cfg, &fault.Policy{Seed: 1, ShipFailProb: 1, MaxAttempts: 1})
	if !errors.Is(err, fault.ErrShipmentFailed) {
		t.Fatalf("err = %v, want a failed shipment", err)
	}
	requirePoolBalanced(t, "after the failed query")
}
