// Package serve is the multi-tenant serving layer: a long-lived query
// server wrapping the PREF engine with deadline propagation, per-tenant
// quotas, weighted-fair admission, cost-priced load shedding, bounded
// retry budgets, a plan cache, streaming delivery with backpressure, and
// graceful drain.
//
// Every submission climbs a three-rung admission ladder before any work
// runs:
//
//  1. quota  — the tenant's token bucket (sustained rate + burst)
//  2. shed   — cost-priced overload protection: above the load
//     threshold, expensive queries are turned away first
//  3. queue  — the server's weighted-fair serving slots (bounded
//     concurrency, fair across tenants by weight)
//
// Below the ladder, inside the engine, the cluster layer tracks node health
// and breakers; it is not a rung — it bounds nothing and queues nothing.
//
// A query rejected at any rung fails with a typed *RejectedError; a query
// killed by its client's deadline fails with engine.ErrDeadlineExceeded,
// wherever along the ladder or execution the deadline fired. Nothing is
// dropped silently.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pref/internal/cluster"
	"pref/internal/engine"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/stats"
	"pref/internal/table"
)

// Options configures a Server.
type Options struct {
	// DB and Config are the database and partitioning design to serve.
	// PDB, when non-nil, supplies an already-partitioned database instead
	// (sharing it with a write path that publishes new epochs).
	DB     *table.Database
	Config *partition.Config
	PDB    *table.PartitionedDatabase

	// Queries is the prepared-query catalog: name → logical plan builder.
	// Submissions reference queries by name; unknown names are rejected
	// with ErrUnknownQuery.
	Queries map[string]func() plan.Node

	// Tenants declares the tenants allowed to submit. Submissions under
	// other names are rejected with ErrUnknownTenant.
	Tenants []TenantConfig

	// MaxConcurrent bounds concurrently served queries (rung 3 slots;
	// default 8). QueueTimeout bounds the weighted-fair queue wait
	// (default 1s); expiry rejects with ErrAdmissionTimeout.
	MaxConcurrent int
	QueueTimeout  time.Duration

	// ShedThreshold is the load — (running+queued)/slots — above which
	// cost-priced shedding starts (default 1.5).
	ShedThreshold float64

	// MaxAttempts bounds executions per query including the first
	// (default 3); retries beyond the first are also drawn from the
	// server-wide retry budget.
	MaxAttempts int

	// Cluster configures the node-health layer beneath the ladder
	// (breakers, probes, hedging). Nodes defaults to the design's
	// partition count.
	Cluster cluster.Options

	// FaultFor, when set, draws the deterministic fault schedule for one
	// execution attempt of submission seq — the soak hook that makes
	// fault storms reproducible. Nil serves fault-free.
	FaultFor func(seq int64, attempt int) *fault.Policy

	// ChunkRows is the streaming chunk size in rows (default 64).
	ChunkRows int
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 8
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = time.Second
	}
	if o.ShedThreshold <= 0 {
		o.ShedThreshold = 1.5
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.ChunkRows <= 0 {
		o.ChunkRows = 64
	}
	if o.Cluster.Nodes <= 0 && o.Config != nil {
		o.Cluster.Nodes = o.Config.NumPartitions
	}
	return o
}

// Server is a long-lived multi-tenant query server over one partitioned
// database. It is safe for concurrent use; Close drains it.
type Server struct {
	opt    Options
	pdb    *table.PartitionedDatabase
	stats  *plan.Stats // what the rewrite prices its choices with
	cl     *cluster.Cluster
	adm    *admitter
	shed   *shedder
	budget *retryBudget
	plans  *planCache
	costs  *costTable

	// baseCtx is cancelled by a forced drain; every query context is
	// derived from the client context but additionally dies with it.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
	seq      atomic.Int64

	met metrics
}

// metrics is the server's internal counter state; Metrics() snapshots it.
type metrics struct {
	mu        sync.Mutex
	submitted int64
	completed int64
	failed    int64
	deadline  int64
	rejected  map[string]int64 // by ladder stage
	retries   int64
	noBudget  int64
	okLat     stats.Latency // end-to-end latency of successful queries
}

// Metrics is a point-in-time snapshot of the server's counters.
type Metrics struct {
	// Submitted counts every Submit/Stream call naming a known query and
	// tenant; each ends in exactly one of the outcomes below, so Completed
	// + Failed + DeadlineExceeded + ΣRejected = Submitted once the server
	// is idle. Completed counts successful queries; Failed typed execution
	// failures and client cancellations; DeadlineExceeded queries killed by
	// their deadline anywhere along the path.
	Submitted        int64
	Completed        int64
	Failed           int64
	DeadlineExceeded int64
	// Rejected counts admission-ladder rejections by stage ("quota",
	// "shed", "queue", "closed").
	Rejected map[string]int64
	// Retries counts re-executions spent; RetryBudgetDenied retries the
	// budget refused (the anti-amplification path under fault storms).
	Retries           int64
	RetryBudgetDenied int64
	// PlanCacheHits/Misses count rewrite-cache outcomes; PlanCacheSize is
	// the live entry count.
	PlanCacheHits   int64
	PlanCacheMisses int64
	PlanCacheSize   int
	// Latency summarizes end-to-end latency of successful queries.
	Latency stats.LatencySummary
	// Cluster is the node-health layer's counters: queries begun, breaker
	// trips, probes, rebuilds.
	Cluster cluster.Stats
}

// NewServer partitions the database (unless a pre-partitioned one is
// supplied), gathers the statistics every rewrite reads, and starts the
// serving layer. The caller must Close it.
func NewServer(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	if opt.Config == nil {
		return nil, errors.New("serve: Options.Config is required")
	}
	if len(opt.Queries) == 0 {
		return nil, errors.New("serve: Options.Queries is empty")
	}
	if len(opt.Tenants) == 0 {
		return nil, errors.New("serve: Options.Tenants is empty")
	}
	if err := validateTenants(opt.Tenants); err != nil {
		return nil, err
	}
	pdb := opt.PDB
	if pdb == nil {
		if opt.DB == nil {
			return nil, errors.New("serve: Options.DB or Options.PDB is required")
		}
		var err error
		pdb, err = partition.Apply(opt.DB, opt.Config)
		if err != nil {
			return nil, fmt.Errorf("serve: partitioning failed: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:        opt,
		pdb:        pdb,
		stats:      plan.GatherStats(pdb),
		cl:         cluster.New(opt.Cluster),
		adm:        newAdmitter(opt.MaxConcurrent, opt.QueueTimeout, opt.Tenants),
		shed:       newShedder(opt.ShedThreshold),
		budget:     newRetryBudget(),
		plans:      newPlanCache(),
		costs:      newCostTable(),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.met.rejected = make(map[string]int64)
	return s, nil
}

// Epoch returns the currently published data epoch — the snapshot new
// queries pin to.
func (s *Server) Epoch() int64 { return s.pdb.Epoch() }

// reject records and returns a typed admission rejection.
func (s *Server) reject(stage, tenant, query string, cost, retryAfter time.Duration, sentinel error) error {
	s.met.mu.Lock()
	s.met.rejected[stage]++
	s.met.mu.Unlock()
	return &RejectedError{
		Stage: stage, Tenant: tenant, Query: query,
		Cost: cost, RetryAfter: retryAfter, err: sentinel,
	}
}

// deadlineErr wraps a context expiry in the typed deadline error, keeping
// context.DeadlineExceeded matchable underneath.
func deadlineErr(cause error) error {
	return fmt.Errorf("%w: %w", engine.ErrDeadlineExceeded, cause)
}

// Submit runs one prepared query for a tenant and returns the fully
// materialized result. It is Stream plus a drain: large results still
// flow through the bounded chunk channel, so Submit exercises the same
// backpressure path.
func (s *Server) Submit(ctx context.Context, tenant, query string) (*Response, error) {
	st, err := s.Stream(ctx, tenant, query)
	if err != nil {
		return nil, err
	}
	return st.Drain()
}

// Stream admits one prepared query through the ladder, executes it, and
// returns a Stream delivering the result in bounded chunks. The serving
// slot is held until the stream is drained or closed — a slow consumer
// exerts backpressure on admission, not on memory. The caller must drain
// or Close the stream.
func (s *Server) Stream(ctx context.Context, tenant, query string) (*Stream, error) {
	start := time.Now()
	_, ok := s.opt.Queries[query]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownQuery, query)
	}
	if s.adm.lane(tenant) == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	s.met.mu.Lock()
	s.met.submitted++
	s.met.mu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, s.reject("closed", tenant, query, 0, 0, ErrServerClosed)
	}
	s.mu.Unlock()

	// Rung 1: tenant quota.
	if ok, retryAfter := s.adm.takeToken(tenant, time.Now()); !ok {
		return nil, s.reject("quota", tenant, query, 0, retryAfter, ErrQuotaExceeded)
	}

	// Rung 2: cost-priced shedding. The query is priced at the EWMA of
	// its own past executions; never-seen queries are priced at the global
	// average.
	cost := s.costs.price(query)
	if ok, retryAfter := s.shed.admit(s.adm.load(), cost); !ok {
		return nil, s.reject("shed", tenant, query, cost, retryAfter, ErrOverloaded)
	}

	// The query context: the client's deadline, additionally killed by a
	// forced drain. stopAfter must run on every exit path or the
	// AfterFunc goroutine outlives the query.
	qctx, qcancel := context.WithCancel(ctx)
	stopAfter := context.AfterFunc(s.baseCtx, qcancel)
	cleanup := func() {
		stopAfter()
		qcancel()
	}

	// Rung 3: weighted-fair serving slot.
	costSec := cost.Seconds()
	if costSec <= 0 {
		costSec = 1
	}
	release, err := s.adm.acquire(qctx, tenant, costSec)
	if err != nil {
		cleanup()
		switch {
		case errors.Is(err, ErrAdmissionTimeout):
			return nil, s.reject("queue", tenant, query, cost, s.opt.QueueTimeout, ErrAdmissionTimeout)
		case errors.Is(err, context.DeadlineExceeded):
			s.met.mu.Lock()
			s.met.deadline++
			s.met.mu.Unlock()
			return nil, deadlineErr(err)
		case s.baseCtx.Err() != nil:
			return nil, s.reject("closed", tenant, query, 0, 0, ErrServerClosed)
		default:
			// The client cancelled while queued: a failure, like a
			// cancellation mid-execution.
			s.met.mu.Lock()
			s.met.failed++
			s.met.mu.Unlock()
			return nil, err
		}
	}

	// The slot is held through execution AND delivery; finish releases it
	// exactly once from whichever path ends the stream first (drain, EOF,
	// Close, client deadline, forced drain).
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		release()
		cleanup()
		return nil, s.reject("closed", tenant, query, 0, 0, ErrServerClosed)
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	var finishOnce sync.Once
	finish := func() {
		finishOnce.Do(func() {
			release()
			cleanup()
			s.inflight.Done()
		})
	}

	res, attempts, cacheHit, err := s.execute(qctx, query)
	elapsed := time.Since(start)
	if err != nil {
		s.met.mu.Lock()
		if errors.Is(err, engine.ErrDeadlineExceeded) {
			s.met.deadline++
		} else {
			s.met.failed++
		}
		s.met.mu.Unlock()
		finish()
		return nil, err
	}

	// Success: feed pricing, earn retry budget, record latency.
	s.costs.observe(query, elapsed)
	s.shed.observe(elapsed)
	s.budget.credit()
	s.met.mu.Lock()
	s.met.completed++
	s.met.okLat.Observe(elapsed)
	s.met.mu.Unlock()

	return newStream(qctx, s.opt.ChunkRows, res, attempts, cacheHit, elapsed, finish), nil
}

// Plan returns the physical plan the server runs for a prepared query: its
// plan-cache entry, rewritten on first use like a submission's.
func (s *Server) Plan(query string) (*plan.Rewritten, error) {
	if _, ok := s.opt.Queries[query]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownQuery, query)
	}
	rw, _, err := s.cachedPlan(query)
	return rw, err
}

// cachedPlan looks the query up in the plan cache, keyed on the query alone. The
// rewrite reads the data only through the statistics gathered at start-up,
// and every plan it makes is correct on any data, so a plan survives
// write-path publishes: the data changes, the plan stays correct, and its
// estimate merely ages.
func (s *Server) cachedPlan(query string) (*plan.Rewritten, bool, error) {
	rw, hit, err := s.plans.get(query, func() (*plan.Rewritten, error) {
		return plan.Rewrite(s.opt.Queries[query](), s.pdb.Schema, s.opt.Config, plan.Options{Stats: s.stats})
	})
	if err != nil {
		return nil, hit, fmt.Errorf("serve: rewrite of %q failed: %w", query, err)
	}
	return rw, hit, nil
}

// execute runs the query against the engine with plan caching and a
// budget-bounded retry loop.
func (s *Server) execute(qctx context.Context, query string) (res *engine.Result, attempts int, cacheHit bool, err error) {
	rw, cacheHit, err := s.cachedPlan(query)
	if err != nil {
		return nil, 0, false, err
	}

	seq := s.seq.Add(1)
	for attempt := 0; attempt < s.opt.MaxAttempts; attempt++ {
		eopt := engine.ExecOptions{Cluster: s.cl}
		if s.opt.FaultFor != nil {
			eopt.Fault = s.opt.FaultFor(seq, attempt)
		}
		res, err = engine.ExecuteCtx(qctx, rw, s.pdb, eopt)
		attempts = attempt + 1
		if err == nil {
			return res, attempts, cacheHit, nil
		}
		if !s.retryable(qctx, err) {
			return nil, attempts, cacheHit, err
		}
		// Spend one retry token; an exhausted budget surfaces the failure
		// instead of amplifying the storm.
		if !s.budget.spend() {
			s.met.mu.Lock()
			s.met.noBudget++
			s.met.mu.Unlock()
			return nil, attempts, cacheHit, err
		}
		s.met.mu.Lock()
		s.met.retries++
		s.met.mu.Unlock()
	}
	return nil, attempts, cacheHit, err
}

// retryable reports whether a failed execution is worth re-attempting:
// transient fault-layer failures are, deadline expiry, cancellation, and
// unrecoverable data loss are not.
func (s *Server) retryable(qctx context.Context, err error) bool {
	if qctx.Err() != nil {
		return false
	}
	if errors.Is(err, engine.ErrDeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, fault.ErrPartitionLost) {
		return false
	}
	return true
}

// Metrics snapshots the server's counters.
func (s *Server) Metrics() Metrics {
	s.met.mu.Lock()
	rej := make(map[string]int64, len(s.met.rejected))
	for k, v := range s.met.rejected {
		rej[k] = v
	}
	m := Metrics{
		Submitted:         s.met.submitted,
		Completed:         s.met.completed,
		Failed:            s.met.failed,
		DeadlineExceeded:  s.met.deadline,
		Rejected:          rej,
		Retries:           s.met.retries,
		RetryBudgetDenied: s.met.noBudget,
		Latency:           s.met.okLat.Summarize(),
	}
	s.met.mu.Unlock()
	m.PlanCacheHits, m.PlanCacheMisses, m.PlanCacheSize = s.plans.stats()
	m.Cluster = s.cl.Stats()
	return m
}

// Close drains the server: new submissions are rejected with
// ErrServerClosed, in-flight queries (including undelivered streams) run
// to completion, then the cluster layer is closed. If ctx expires first
// the drain turns forced — every in-flight query context is cancelled —
// and Close still joins everything before returning ctx's error. Either
// way, no goroutine of the server survives Close.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		s.baseCancel()
		<-done
	}
	s.cl.Close()
	s.baseCancel()
	return forced
}
