// Package engine executes rewritten physical plans over a partitioned
// in-memory database: one logical node per partition, local operators per
// node, and exchange operators (repartition, broadcast, gather) that move
// rows between nodes while metering every byte that crosses a node
// boundary. The meter is the experiment substrate: the paper's runtime
// differences are driven by remote exchanges and per-node data volume,
// both of which are first-class observables here.
//
// Execution is resilient: every per-node unit of work runs under a
// per-query context.Context (deadline + cancellation), recovers panics
// into errors, retries injected crashes with capped exponential backoff,
// and fails work over from permanently failed nodes to a surviving buddy.
// Base-table partitions on failed nodes are reconstructed from PREF /
// replication redundancy where the scheme covers them (see recovery.go).
package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"pref/internal/batch"
	"pref/internal/check"
	"pref/internal/cluster"
	"pref/internal/fault"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/trace"
	"pref/internal/value"
)

// Stats aggregates the execution telemetry of one query: the sum of the
// per-(operator, node) metering cells, taken once when execution finishes.
// The fields are documented on trace.Totals.
type Stats = trace.Totals

// Result is a completed query: output schema, gathered rows, telemetry.
type Result struct {
	Schema plan.Schema
	Rows   []value.Tuple
	Stats  Stats
	// Epoch is the data epoch the query was pinned to when it began:
	// every row it read came from that published snapshot, regardless of
	// concurrent write batches.
	Epoch int64
	// Trace is the per-operator, per-node execution trace, assembled when
	// ExecOptions.Trace is set; nil otherwise. It renders as EXPLAIN
	// ANALYZE via Trace.Render and exports as JSON.
	Trace *trace.Trace
}

// SortRows orders the result rows lexicographically, making map-ordered
// aggregate output deterministic for comparison.
func (r *Result) SortRows() {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// ExecOptions tunes the execution model.
type ExecOptions struct {
	// CacheRows models the per-node buffer pool, in rows. Hash-join
	// probes into a build side larger than this pay missFactor× work —
	// the mechanism that made the paper's MySQL nodes collapse on joins
	// against large replicated tables (e.g. Q9 against a fully
	// replicated 8M-row PARTSUPP). 0 disables the penalty.
	CacheRows int
	// Fault configures deterministic fault injection and the resilient
	// execution paths (retry, failover, redundancy recovery, per-query
	// timeout). Nil executes fault-free.
	Fault *fault.Policy
	// Verify runs the internal/check static plan/design verifier before
	// executing (a debug mode: every invariant of the Section 2.2 rewrite
	// is re-proved first) and, after executing, cross-checks the recorded
	// per-operator counters against the statically proven plan properties
	// (check.VerifyTrace): rows shipped through an operator the verifier
	// proved local fail the query. Setting the PREF_VERIFY environment
	// variable to any non-empty value enables it process-wide.
	Verify bool
	// Trace assembles the per-operator, per-node counters into
	// Result.Trace. The counters themselves are recorded for every query —
	// Result.Stats is their sum — so this only selects whether the tree
	// (labels, properties, per-node breakdown) is built.
	Trace bool
	// Cluster attaches the query to a long-lived cluster health layer:
	// circuit-breaker routing (nodes tripped by earlier queries are routed
	// around without burning retries), half-open probing with partition
	// rebuild by the probing query, and hedged execution for straggling
	// partition units. Nil executes without the layer: the fault policy alone decides
	// which nodes are down, every query retries against them from scratch,
	// and no unit is hedged.
	Cluster *cluster.Cluster
}

// missFactor is the work multiplier for hash-join probes into a build side
// larger than ExecOptions.CacheRows.
const missFactor = 15

// verifyEnv caches the PREF_VERIFY environment toggle.
var verifyEnv = sync.OnceValue(func() bool { return os.Getenv("PREF_VERIFY") != "" })

// dispatcher evaluates a plan to per-partition batch lists. The product has
// one, (*executor).evalVec; the package's own tests pass the row reference
// (ref_test.go) instead, to drive the same executeCtx over it.
type dispatcher func(*executor, plan.Node) (vparts, error)

// executor walks the physical plan once per query.
type executor struct {
	rw      *plan.Rewritten
	pdb     *table.PartitionedDatabase
	n       int
	opt     ExecOptions
	inj     *fault.Injector
	ctx     context.Context
	cancel  context.CancelFunc
	opSeq   int   // deterministic operator counter (main goroutine only)
	execDst []int // executing node per logical partition (buddy when down)
	// cl is the cluster health layer (nil: disabled); recovered is its
	// BeginQuery snapshot's rebuilt nodes and down the effective down set —
	// injector faults not yet healed, plus breaker-tripped nodes — both
	// immutable for the whole query.
	cl        *cluster.Cluster
	recovered []bool
	down      []bool
	// snap is the data snapshot pinned when the query began; all scans read
	// its published partitions, never the loader's live write head.
	snap *table.DBSnapshot
	// hedgeDelay is the speculative-duplicate delay priced when the query
	// begins; hedgeOK gates the hedged fan-out path.
	hedgeDelay time.Duration
	hedgeOK    bool
	// verify is ExecOptions.Verify or PREF_VERIFY: evalVec then also checks
	// every fresh output against its inputs.
	verify bool
	// tb is the query's one ledger: every operator charges its Op's
	// per-node cells and Result.Stats is their sum. Nil only in hand-built
	// white-box executors; Begin and the ops' mutators are nil-safe. Note
	// the fault-schedule anchor opSeq is NOT shared with trace op ids.
	tb *trace.Builder
	// filters holds the sources of the runtime join filters met so far, by
	// the join that fires them: per source partition, its keys (query
	// goroutine only; see buildFilters).
	filters map[*plan.JoinNode][][]int64
	// owed is the query's release stack: the pooled batch lists the outputs
	// evaluated so far keep alive, in evaluation order. evalVec's frames
	// push and settle it; the Result assembly releases what the root
	// leaves. The query goroutine owns it, except that unit goroutines
	// push discarded outputs under mu while it waits for them (see drop).
	owed pooled
	mu   sync.Mutex
}

// versionOf resolves the table version a scan of tbl must read: the pinned
// snapshot's published version when the query has one (the normal path —
// executeCtx pins a snapshot), else an unpublished view of the live head
// (executors driven without executeCtx, e.g. direct unit-test
// construction), whose copy index lives and dies with the scan. Every
// scan resolves partitions here, so the snapshot-or-head decision lives in
// one place.
func (ex *executor) versionOf(pt *table.Partitioned, tbl string) *table.Version {
	if ex.snap != nil {
		if v := ex.snap.Tables[tbl]; v != nil {
			return v
		}
	}
	return &table.Version{Parts: pt.Parts}
}

// epoch returns the query's pinned data epoch (0 without a snapshot).
func (ex *executor) epoch() int64 {
	if ex.snap != nil {
		return ex.snap.Epoch
	}
	return 0
}

// ErrDeadlineExceeded reports a query killed by an expired deadline —
// the caller's context deadline or the fault policy's per-query timeout —
// anywhere along the propagation path: waiting in the serving layer's
// queue, between operator fan-outs, or inside a per-partition work unit.
// It is deliberately distinct from serve.ErrAdmissionTimeout (the serving
// queue's own bounded wait, independent of any client deadline): a serving
// layer shedding load and a client giving up are different events and are
// priced differently. Matches errors.Is; the wrapped chain additionally
// still matches context.DeadlineExceeded.
var ErrDeadlineExceeded = errors.New("engine: query deadline exceeded")

// ExecuteCtx runs a rewritten plan against a partitioned database under
// the caller's context and gathers the result at the coordinator. It is
// the engine's one entry point: the engine never mints a root context, so
// every per-node unit runs under ctx. The query additionally gets its own
// deadline when the fault policy sets one; cancelling ctx aborts all
// in-flight per-node work. A query killed by an expired deadline fails
// with a typed ErrDeadlineExceeded.
func ExecuteCtx(ctx context.Context, rw *plan.Rewritten, pdb *table.PartitionedDatabase, opt ExecOptions) (*Result, error) {
	res, err := executeCtx(ctx, rw, pdb, opt, (*executor).evalVec)
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	}
	return res, err
}

// executeCtx is the untyped body of ExecuteCtx: one query, start to finish,
// with the plan evaluated by root.
func executeCtx(ctx context.Context, rw *plan.Rewritten, pdb *table.PartitionedDatabase, opt ExecOptions, root dispatcher) (*Result, error) {
	verify := opt.Verify || verifyEnv()
	if verify {
		if err := check.Verify(rw); err != nil {
			return nil, fmt.Errorf("engine: plan failed static verification: %w", err)
		}
	}
	var inj *fault.Injector
	if opt.Fault != nil {
		inj = fault.NewInjector(*opt.Fault)
	}
	var cancel context.CancelFunc
	if t := inj.Timeout(); t > 0 {
		ctx, cancel = context.WithTimeout(ctx, t)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	// Pin the data snapshot first: everything the query scans comes from
	// it, never the loader's write head, which isolates the query from
	// concurrent write batches. Then one bracket per query: a closed
	// cluster refuses it before it touches health or launches work;
	// otherwise the cluster trips nodes the fault layer reports down right
	// now and runs due half-open probes, rebuilding each node whose probe
	// passes from snap. done ticks the breaker cool-downs, which are
	// counted in completed queries.
	snap := pdb.Snapshot()
	cl := opt.Cluster
	view, probes, done, err := cl.BeginQuery(snap, inj.NodeDown, inj.ProbeOK)
	if err != nil {
		return nil, fmt.Errorf("engine: query not admitted: %w", err)
	}
	defer done()
	down := effectiveDown(pdb.N, inj, view)
	execDst, err := buddyMap(pdb.N, down)
	if err != nil {
		return nil, err
	}
	ex := &executor{
		rw: rw, pdb: pdb, n: pdb.N, opt: opt, inj: inj,
		ctx: ctx, cancel: cancel, execDst: execDst,
		cl: cl, recovered: view.Recovered, down: down, snap: snap,
		tb: trace.NewBuilder(pdb.N, probes), verify: verify,
	}
	ex.hedgeDelay, ex.hedgeOK = cl.HedgeDelay()
	parts, err := root(ex, rw.Root)
	if err != nil {
		return nil, err
	}
	// The Result assembly is the root's consumer: it copies the rows out,
	// and the batches they came from die with the query.
	defer ex.owed.release()
	rootProp := rw.Props[rw.Root]
	sch := rw.Schemas[rw.Root]

	// The synthetic Result span covers the implicit hand-off of the root's
	// partitions to the coordinator, traced even when it ships nothing.
	// final lists the batches the coordinator ends up holding.
	rtop := ex.tb.BeginResult()
	var final []*batch.Batch
	switch {
	case rootProp != nil && (rootProp.Gathered || rootProp.Repl):
		final = parts[0]
		if rootProp.Repl {
			rtop.SetReadOne() // coordinator reads one of n identical copies
		}
		rtop.AddIn(ex.execDst[0], batch.Rows(final))
	default:
		// Implicit final gather to the coordinator, metered.
		op := ex.nextOp()
		for p, bs := range parts {
			rtop.AddIn(ex.execDst[p], batch.Rows(bs))
			if p != 0 {
				if err := ex.shipBatch(rtop, op, p, batch.Rows(bs), len(sch)); err != nil {
					return nil, err
				}
			}
			final = append(final, bs...)
		}
	}
	// The one place rows leave the columnar form: batches travel from scan to
	// here, and Result.Rows is what the callers read.
	rows := batch.AppendRows(nil, final)
	rtop.AddOut(ex.execDst[0], len(rows))
	res := &Result{Schema: sch, Rows: rows, Stats: ex.tb.Totals(), Epoch: ex.epoch()}
	if opt.Trace || verify {
		tr := ex.tb.Build(rw)
		if verify {
			// Runtime cross-check: the observed spans must agree with the
			// statically proven Dup/Part properties.
			if err := check.VerifyTrace(rw, tr); err != nil {
				return nil, fmt.Errorf("engine: execution trace failed runtime verification: %w", err)
			}
		}
		if opt.Trace {
			res.Trace = tr
		}
	}
	return res, nil
}

// effectiveDown resolves the query's down set: nodes the injector faults
// that the cluster has not healed and rebuilt, plus nodes the cluster
// routes around (breaker open: down or recovering). Without a cluster,
// view is zero-valued and the set degenerates to the injector's.
func effectiveDown(n int, inj *fault.Injector, view cluster.View) []bool {
	down := make([]bool, n)
	for p := range down {
		healed := p < len(view.Recovered) && view.Recovered[p]
		tripped := p < len(view.Serving) && !view.Serving[p]
		down[p] = (inj.NodeDown(p) && !healed) || tripped
	}
	return down
}

// ErrAllNodesDown reports a query with no surviving node to run on:
// every logical node is permanently failed, breaker-tripped, or marked
// down by the health layer. Matches errors.Is; transient when breakers
// are the cause (cool-downs re-admit nodes), so callers may retry it
// under budget.
var ErrAllNodesDown = errors.New("engine: all nodes are down")

// buddyMap assigns every logical partition its executing node: itself, or
// — for down nodes — the next surviving node in ring order.
func buddyMap(n int, down []bool) ([]int, error) {
	dst := make([]int, n)
	for p := range dst {
		dst[p] = p
		if !down[p] {
			continue
		}
		buddy := nextSurviving(p, down)
		if buddy < 0 {
			return nil, fmt.Errorf("%w (%d nodes)", ErrAllNodesDown, n)
		}
		dst[p] = buddy
	}
	return dst, nil
}

// nextSurviving returns the first node after p in ring order that is not
// down, or -1 when p is the only one left. It picks both a down node's
// buddy and a hedged unit's duplicate node.
func nextSurviving(p int, down []bool) int {
	n := len(down)
	for d := 1; d < n; d++ {
		if c := (p + d) % n; !down[c] {
			return c
		}
	}
	return -1
}

// nextOp returns the next deterministic operator id. evalVec walks the plan
// sequentially on the query goroutine, so the sequence is a pure function
// of the plan — the anchor that keeps fault schedules reproducible.
func (ex *executor) nextOp() int {
	op := ex.opSeq
	ex.opSeq++
	return op
}

// firstErr picks the root-cause error, preferring anything over the
// context.Canceled noise that cancellation propagates to sibling units.
func firstErr(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

// healed reports whether the cluster has repaired and rebuilt a node, so
// the injector's node-level faults for it no longer apply.
func (ex *executor) healed(node int) bool {
	return node < len(ex.recovered) && ex.recovered[node]
}

// crashAttempt and stragglerDelay are the injector hooks filtered through
// cluster health: a healed node's scripted node faults are gone.
func (ex *executor) crashAttempt(op, node, attempt int) bool {
	if ex.healed(node) {
		return false
	}
	return ex.inj.CrashAttempt(op, node, attempt)
}

func (ex *executor) stragglerDelay(op, node int) time.Duration {
	if ex.healed(node) {
		return 0
	}
	return ex.inj.StragglerDelay(op, node)
}

// sleepCtx sleeps d unless the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// shipBatch meters one exchange shipment of rows of the given width from
// src; see ship.
func (ex *executor) shipBatch(top *trace.Op, op, src, rows, width int) error {
	return ex.ship(top, op, src, rows, int64(rows)*int64(width)*8)
}

// ship meters one shipment of rows and bytes from src under injected
// shipment failures: a failed attempt's bytes hit the wire before being
// re-sent (so BytesShipped degrades) and its payload counts as wasted.
// Runs on the query goroutine only. Trace cells are charged to the node
// actually executing the source partition (the buddy when src is down);
// fault draws stay keyed by the logical src.
func (ex *executor) ship(top *trace.Op, op, src, rows int, bytes int64) error {
	if rows == 0 && bytes == 0 {
		return nil
	}
	en := ex.execDst[src]
	max := ex.inj.MaxAttempts()
	for attempt := 0; ; attempt++ {
		if err := ex.ctx.Err(); err != nil {
			return err
		}
		top.AddShip(en, rows, bytes)
		if !ex.inj.ShipFail(op, src, attempt) {
			return nil
		}
		top.AddRetry(en, rows)
		if attempt+1 >= max {
			return fmt.Errorf("engine: shipment of %d rows (%d bytes) from node %d: %d failed attempts: %w",
				rows, bytes, src, max, fault.ErrShipmentFailed)
		}
		if err := sleepCtx(ex.ctx, ex.inj.Backoff(op, src, attempt)); err != nil {
			return err
		}
	}
}

// scanHasIndexes reports whether a scan's recorded schema carries the hidden
// dup/hasRef index columns — by their names, which only a PREF table's scan
// schema ends in.
func scanHasIndexes(sch plan.Schema) bool {
	return len(sch) > 0 && plan.IsHiddenCol(sch[len(sch)-1].Name)
}
