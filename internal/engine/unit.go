package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pref/internal/batch"
	"pref/internal/cluster"
	"pref/internal/fault"
	"pref/internal/trace"
	"pref/internal/value"
)

// Generic per-partition work machinery.
//
// The product's operators and their row twins in the test-only reference
// share every resilience and metering mechanism — fan-out, retry/backoff,
// failover, hedging, trace cells — differing only in the payload a unit
// produces: []*batch.Batch or []value.Tuple. The functions here are generic
// over that payload so both run the byte-identical fault model: fault draws
// are keyed by (operator id, executing node, attempt), and the operator id
// sequence is a pure function of the plan. Go methods cannot take type
// parameters, hence free functions taking the executor explicitly.

// payload is a unit's output representation: columnar batches, or the
// reference's row tuples.
type payload interface {
	~[]value.Tuple | ~[]*batch.Batch
}

// rowsOf counts the logical rows of a payload — the number every meter
// charges, independent of representation.
func rowsOf[T payload](v T) int {
	switch x := any(v).(type) {
	case []value.Tuple:
		return len(x)
	case []*batch.Batch:
		return batch.Rows(x)
	}
	return 0
}

// unitFn computes one partition's slice of an operator: its output payload
// plus the operator work (a row count) to charge to the executing node.
type unitFn[T payload] func(p int) (out T, work int, err error)

// forEachPart runs one unit of work per partition concurrently under the
// fault model and returns the per-partition outputs — with an error, those
// of the units that succeeded, which the operator returns with it. The
// first node error cancels the query context so no further work launches —
// here for the remaining partitions, and in every downstream operator.
// Successful units record their output, work, and wall time into top's
// per-node cells (nil top, in white-box tests: nothing is recorded).
func forEachPart[T payload](ex *executor, top *trace.Op, fn unitFn[T]) ([]T, error) {
	op := ex.nextOp()
	out := make([]T, ex.n)
	errs := make([]error, ex.n)
	var wg sync.WaitGroup
	for p := 0; p < ex.n; p++ {
		if err := ex.ctx.Err(); err != nil {
			errs[p] = err // short-circuit: stop launching work
			break
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rows, err := runPart(ex, ex.ctx, top, op, p, fn)
			if err != nil {
				errs[p] = err
				ex.cancel()
				return
			}
			out[p] = rows
		}(p)
	}
	wg.Wait()
	return out, firstErr(errs)
}

// drop puts a unit output the fault model discards — a crashed attempt's, a
// hedge loser's — on the operator's frame, to die with its inputs. The
// reference's row payloads hold no pooled batch.
func drop[T payload](ex *executor, v T) {
	if bs, ok := any(v).([]*batch.Batch); ok && len(bs) > 0 {
		ex.mu.Lock()
		ex.owed = append(ex.owed, vparts{bs})
		ex.mu.Unlock()
	}
}

// runPart executes one partition's unit, hedging a speculative duplicate
// onto a surviving peer when the cluster's hedge policy is on and a
// candidate node exists.
func runPart[T payload](ex *executor, ctx context.Context, top *trace.Op, op, p int, fn unitFn[T]) (T, error) {
	en := ex.execDst[p]
	if !ex.hedgeOK {
		return runAttempt(ex, ctx, top, op, p, en, false, nil, fn)
	}
	hn := nextSurviving(en, ex.down)
	if hn < 0 {
		return runAttempt(ex, ctx, top, op, p, en, false, nil, fn)
	}
	return runHedged(ex, ctx, top, op, p, en, hn, fn)
}

// runHedged races partition p's unit on its primary node en against a
// speculative duplicate on hn, launched only if the primary is still
// running after the cluster-priced hedge delay. First success wins and
// cancels the sibling; the fan-out always joins before returning
// (structured concurrency — losers unwind promptly because straggler
// sleeps and backoffs are context-aware).
func runHedged[T payload](ex *executor, ctx context.Context, top *trace.Op, op, p, en, hn int, fn unitFn[T]) (T, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type unitResult struct {
		rows T
		err  error
	}
	// Capacity 2: both racers can deliver without a reader, so the loser
	// never blocks on send after the winner returned.
	resc := make(chan unitResult, 2)
	var won atomic.Bool
	var wg sync.WaitGroup
	launch := func(node int, hedge bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := runAttempt(ex, hctx, top, op, p, node, hedge, &won, fn)
			resc <- unitResult{rows, err}
		}()
	}
	launch(en, false)
	timer := time.NewTimer(ex.hedgeDelay)
	defer timer.Stop()
	outstanding, hedged := 1, false
	var errs []error
	var rows T
	var rerr error
race:
	for {
		select {
		case <-timer.C:
			if !hedged && !won.Load() && hctx.Err() == nil {
				hedged = true
				top.AddHedge(hn)
				launch(hn, true)
				outstanding++
			}
		case r := <-resc:
			outstanding--
			if r.err == nil {
				cancel() // first result wins: unwind the sibling
				rows = r.rows
				break race
			}
			errs = append(errs, r.err)
			if outstanding == 0 {
				rerr = firstErr(errs)
				break race
			}
		}
	}
	wg.Wait()
	return rows, rerr
}

// runAttempt runs one unit attempt-chain of partition p on node en and
// meters its outcome. won is the hedge-race flag (nil outside a race):
// exactly one racer claims it and meters output; a racer that succeeds
// after the claim is the loser — its rows are discarded but the CPU they
// cost is charged to the node and metered as wasted hedge work.
func runAttempt[T payload](ex *executor, ctx context.Context, top *trace.Op, op, p, en int, hedge bool, won *atomic.Bool, fn unitFn[T]) (T, error) {
	var zero T
	start := time.Now()
	rows, work, err := runUnit(ex, ctx, top, op, p, en, fn)
	elapsed := time.Since(start)
	top.AddWall(en, elapsed)
	if err != nil {
		return zero, err
	}
	if won != nil && !won.CompareAndSwap(false, true) {
		drop(ex, rows)
		top.AddHedgeWaste(en, work)
		top.AddWork(en, work)
		return zero, errHedgeLost
	}
	ex.cl.ObserveUnit(elapsed)
	top.AddOut(en, rowsOf(rows))
	top.AddWork(en, work)
	if hedge {
		top.AddHedgeWin(en)
	} else if en != p {
		top.AddFailover(en)
	}
	return rows, nil
}

// runUnit executes one work unit of partition p on node en under the
// fault model: straggler delay, crash injection with jittered capped
// exponential backoff, panic recovery, and cancellation checks between
// attempts. Fault draws are keyed by the executing node, so work failed
// over (or hedged) to another node inherits that node's fault behaviour.
// Every attempt outcome is reported to the cluster health layer, and a
// breaker that trips mid-query fails the unit fast instead of burning
// the remaining retry budget against a node already judged down.
func runUnit[T payload](ex *executor, ctx context.Context, top *trace.Op, op, p, en int, fn unitFn[T]) (T, int, error) {
	var zero T
	max := ex.inj.MaxAttempts()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, 0, err
		}
		if d := ex.stragglerDelay(op, en); d > 0 {
			if err := sleepCtx(ctx, d); err != nil {
				return zero, 0, err
			}
		}
		rows, work, err := callUnit(fn, p)
		if err != nil {
			return zero, 0, err // genuine operator error: retrying cannot help
		}
		if !ex.crashAttempt(op, en, attempt) {
			ex.cl.ReportSuccess(en)
			return rows, work, nil
		}
		ex.cl.ReportFailure(en)
		// The attempt crashed after doing its work: the output is
		// discarded, but the CPU it burned still occupied the node.
		drop(ex, rows)
		top.AddRetry(en, work)
		top.AddWork(en, work)
		if attempt+1 >= max {
			return zero, 0, fmt.Errorf("engine: partition %d on node %d: %d crashed attempts: %w",
				p, en, max, fault.ErrNodeFailed)
		}
		if !ex.cl.Allow(en) {
			return zero, 0, fmt.Errorf("engine: partition %d on node %d: %w", p, en, cluster.ErrNodeTripped)
		}
		if err := sleepCtx(ctx, ex.inj.Backoff(op, en, attempt)); err != nil {
			return zero, 0, err
		}
	}
}

// callUnit invokes fn, converting a goroutine panic into an error so one
// bad partition fails the query instead of crashing the process.
func callUnit[T payload](fn unitFn[T], p int) (rows T, work int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: partition %d: recovered panic: %v", p, r)
		}
	}()
	return fn(p)
}
