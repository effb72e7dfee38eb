package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"pref/internal/fault"
	"pref/internal/plan"
)

// TestTypedDeadlineError pins the serving layer's error taxonomy at its
// root: any deadline expiry — the caller's context or the fault policy's
// per-query timeout — surfaces as ErrDeadlineExceeded, with
// context.DeadlineExceeded still matchable underneath. (Its distinctness
// from the serving queue's own timeout sentinel is pinned where both are
// visible: TestErrorTaxonomy, through the pref facade.)
func TestTypedDeadlineError(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["classical"]
	mk := func() plan.Node {
		return plan.Aggregate(plan.Scan("customer", "c"), nil, plan.Count("cnt"))
	}
	pq := prepareQuery(t, mk, db, cfg)
	rw, err := plan.Rewrite(pq.mk(), pq.db.Schema, pq.cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Client context deadline: straggle every unit past a tight deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	pol := &fault.Policy{Seed: 1, StragglerProb: 1, StragglerDelay: 300 * time.Millisecond}
	_, err = ExecuteCtx(ctx, rw, pq.pdb, ExecOptions{Fault: pol})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("client-deadline err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v does not unwrap to context.DeadlineExceeded", err)
	}

	// Fault-policy per-query timeout: same typed error, no client ctx.
	pol = &fault.Policy{Seed: 2, StragglerProb: 1, StragglerDelay: 300 * time.Millisecond,
		Timeout: 10 * time.Millisecond}
	_, err = ExecuteCtx(context.Background(), rw, pq.pdb, ExecOptions{Fault: pol})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("policy-timeout err = %v, want ErrDeadlineExceeded", err)
	}

	// An expired context must not report a typed deadline when the cause
	// was plain cancellation.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	_, err = ExecuteCtx(cctx, rw, pq.pdb, ExecOptions{Fault: pol})
	if err == nil || errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("cancelled-context err = %v, want untyped cancellation", err)
	}
}
