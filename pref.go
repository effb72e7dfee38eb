// Package pref is a from-scratch implementation of predicate-based
// reference partitioning (PREF) and its automated partitioning design
// algorithms, reproducing "Locality-aware Partitioning in Parallel
// Database Systems" (Zamanian, Binnig, Salama — SIGMOD 2015).
//
// The package bundles everything a shared-nothing analytical system needs
// to use PREF end to end:
//
//   - Schema and data modeling (Schema, Table, Database) with
//     dictionary-encoded values;
//   - The partitioning schemes (HASH, ROUND-ROBIN, RANGE, REPLICATED and
//     PREF) with the dup/hasRef indexes of the paper's Section 2;
//   - The schema-driven (SchemaDriven) and workload-driven
//     (WorkloadDriven) automated design algorithms of Sections 3–4,
//     including redundancy estimation from (optionally sampled) join-key
//     histograms;
//   - SPJA query plans and the locality-aware rewrite of Section 2.2;
//   - An in-memory parallel execution engine that meters network traffic
//     and models cluster runtime;
//   - Tuple-at-a-time bulk loading with partition indexes (Section 2.3);
//   - A multi-tenant serving layer: per-tenant quotas, weighted-fair
//     admission, cost-priced load shedding, deadline propagation, a plan
//     cache keyed on the prepared query, and graceful drain;
//   - TPC-H and TPC-DS substrates (generators, queries, workloads).
//
// # Quick start
//
//	db := pref.GenerateTPCH(0.01, 42) // deterministic micro TPC-H
//	d, _ := pref.SchemaDriven(db.DB, pref.SDOptions{Parts: 10})
//	pdb, _ := pref.Apply(db.DB, d.Config)
//	q := db.Query("Q3")
//	res, _ := pref.Run(q, db.DB.Schema, d.Config, pdb)
//	fmt.Println(len(res.Rows), "rows,", res.Stats.BytesShipped, "bytes shipped")
//
// See the examples/ directory for complete programs.
package pref

import (
	"context"

	"pref/internal/bulkload"
	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/cluster"
	"pref/internal/design"
	"pref/internal/engine"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/serve"
	"pref/internal/stats"
	"pref/internal/table"
	"pref/internal/tpcds"
	"pref/internal/tpch"
	"pref/internal/trace"
	"pref/internal/value"
)

// ---- schema & data ----

// Core schema and storage types.
type (
	// Schema is a set of tables plus referential constraints.
	Schema = catalog.Schema
	// Table describes one relation (columns, primary key, dictionaries).
	Table = catalog.Table
	// Column is one attribute (name + kind).
	Column = catalog.Column
	// ForeignKey is a referential constraint between two tables.
	ForeignKey = catalog.ForeignKey
	// Database is a set of unpartitioned in-memory tables.
	Database = table.Database
	// PartitionedDatabase is a database after partitioning.
	PartitionedDatabase = table.PartitionedDatabase
	// Tuple is one row of int64-encoded values.
	Tuple = value.Tuple
	// Kind is a column value kind (Int, Money, Date, Str, Float).
	Kind = value.Kind
)

// Value kinds.
const (
	Int   = value.Int
	Money = value.Money
	Date  = value.Date
	Str   = value.Str
	Float = value.Float
)

// NewSchema returns an empty named schema.
func NewSchema(name string) *Schema { return catalog.NewSchema(name) }

// NewTable builds a table description (errors on duplicate columns).
func NewTable(name string, cols []Column, pk ...string) (*Table, error) {
	return catalog.NewTable(name, cols, pk...)
}

// MustTable is NewTable that panics on error.
func MustTable(name string, cols []Column, pk ...string) *Table {
	return catalog.MustTable(name, cols, pk...)
}

// NewDatabase returns an empty database over a schema.
func NewDatabase(s *Schema) *Database { return table.NewDatabase(s) }

// ---- partitioning (Section 2) ----

// Partitioning configuration types.
type (
	// Config assigns a partitioning scheme to every table.
	Config = partition.Config
	// TableScheme is one table's scheme.
	TableScheme = partition.TableScheme
	// Predicate is a conjunctive equi-join partitioning predicate.
	Predicate = partition.Predicate
)

// Partitioning methods.
const (
	Hash       = partition.Hash
	RoundRobin = partition.RoundRobin
	Range      = partition.Range
	Replicated = partition.Replicated
	Pref       = partition.Pref
)

// NewConfig returns an empty configuration for n partitions.
func NewConfig(n int) *Config { return partition.NewConfig(n) }

// Apply partitions a database under a configuration, producing the
// partitioned database with populated dup/hasRef indexes.
func Apply(db *Database, cfg *Config) (*PartitionedDatabase, error) {
	return partition.Apply(db, cfg)
}

// ---- automated design (Sections 3 & 4) ----

// Design algorithm types.
type (
	// SDOptions configures the schema-driven algorithm.
	SDOptions = design.SDOptions
	// WDOptions configures the workload-driven algorithm.
	WDOptions = design.WDOptions
	// Design is a schema-driven design result.
	Design = design.Design
	// WDDesign is a workload-driven design result.
	WDDesign = design.WDDesign
	// Query abstracts a workload query (tables + equi-join predicates).
	Query = design.Query
	// QueryJoin is one equi-join predicate of a workload query.
	QueryJoin = design.QueryJoin
)

// SchemaDriven runs the schema-driven partitioning design algorithm.
func SchemaDriven(db *Database, opt SDOptions) (*Design, error) {
	return design.SchemaDriven(db, opt)
}

// WorkloadDriven runs the workload-driven partitioning design algorithm.
func WorkloadDriven(db *Database, queries []Query, opt WDOptions) (*WDDesign, error) {
	return design.WorkloadDriven(db, queries, opt)
}

// ---- query plans & execution ----

// Plan and execution types.
type (
	// PlanNode is a logical or physical query plan operator.
	PlanNode = plan.Node
	// PlanOptions toggles rewrite optimizations and carries the statistics
	// the rewrite prices its choices with.
	PlanOptions = plan.Options
	// PlanStats are those statistics (GatherStats).
	PlanStats = plan.Stats
	// Rewritten is a rewritten (physical) plan ready for execution.
	Rewritten = plan.Rewritten
	// Result is a completed query with telemetry.
	Result = engine.Result
	// Stats is the execution telemetry (bytes shipped, rows, exchanges).
	Stats = engine.Stats
	// Trace is the per-operator, per-node execution trace populated by
	// Explain / ExecOptions.Trace; renders as EXPLAIN ANALYZE via
	// Trace.Render and exports via Trace.JSON.
	Trace = trace.Trace
	// OpTrace is one operator's span within a Trace.
	OpTrace = trace.OpTrace
	// TraceRenderOptions tunes EXPLAIN ANALYZE rendering (wall-time
	// hiding for deterministic output, per-node breakdowns).
	TraceRenderOptions = trace.RenderOptions
	// TraceKind classifies a span's operator (trace.KindJoin, ...);
	// TraceKind.Exchange reports whether the operator legally ships rows.
	TraceKind = trace.Kind
	// CostModel converts telemetry into simulated cluster runtime.
	CostModel = engine.CostModel
	// ExecOptions tunes the execution model: buffer-pool size, fault
	// injection, verification, tracing, the cluster health layer. Nothing
	// in it selects an engine — there is one.
	ExecOptions = engine.ExecOptions
	// FaultPolicy configures deterministic fault injection: node
	// crashes, stragglers, shipment failures, per-query timeouts.
	FaultPolicy = fault.Policy
	// PartitionLostError reports an unrecoverable partition loss
	// (a down node whose data has no surviving duplicate copies).
	PartitionLostError = fault.PartitionLostError
	// ValExpr is a scalar expression.
	ValExpr = plan.ValExpr
	// BoolExpr is a predicate expression.
	BoolExpr = plan.BoolExpr
	// AggExpr is one aggregate of an aggregation operator.
	AggExpr = plan.AggExpr
	// OrderSpec is one ORDER BY term of a TopK operator.
	OrderSpec = plan.OrderSpec
)

// Span kinds: the TraceKind values OpTrace.Kind takes when walking a
// Trace (internal/trace documents the per-kind conservation laws).
const (
	KindScan            = trace.KindScan
	KindFilter          = trace.KindFilter
	KindProject         = trace.KindProject
	KindJoin            = trace.KindJoin
	KindAggregate       = trace.KindAggregate
	KindPartialAgg      = trace.KindPartialAgg
	KindFinalAgg        = trace.KindFinalAgg
	KindRepartition     = trace.KindRepartition
	KindBroadcast       = trace.KindBroadcast
	KindDistinctPref    = trace.KindDistinctPref
	KindDistinctByValue = trace.KindDistinctByValue
	KindGather          = trace.KindGather
	KindTopK            = trace.KindTopK
	KindRuntimeFilter   = trace.KindRuntimeFilter
	KindLocalFilter     = trace.KindLocalFilter
	KindResult          = trace.KindResult
	KindUnexecuted      = trace.KindUnexecuted
)

// Plan construction (see package plan for the full builder set).
var (
	// Scan reads a base table under an alias.
	Scan = plan.Scan
	// Filter applies a selection predicate.
	Filter = plan.Filter
	// Join builds an equi-join.
	Join = plan.Join
	// Project projects/renames columns.
	Project = plan.Project
	// ProjectCols projects existing columns by name.
	ProjectCols = plan.ProjectCols
	// Aggregate groups and aggregates.
	Aggregate = plan.Aggregate
	// Col references a column; Lit / MoneyLit / DateLit build literals.
	Col      = plan.Col
	Lit      = plan.Lit
	MoneyLit = plan.MoneyLit
	DateLit  = plan.DateLit
	// Eq/Ne/Lt/Le/Gt/Ge/And/Or/Not/In build predicates.
	Eq  = plan.Eq
	Ne  = plan.Ne
	Lt  = plan.Lt
	Le  = plan.Le
	Gt  = plan.Gt
	Ge  = plan.Ge
	And = plan.And
	Or  = plan.Or
	Not = plan.Not
	In  = plan.In
	// Sum/Count/CountCol/CountDistinct/Avg/Min/Max build aggregates.
	Sum           = plan.Sum
	Count         = plan.Count
	CountCol      = plan.CountCol
	CountDistinct = plan.CountDistinct
	Avg           = plan.Avg
	Min           = plan.Min
	Max           = plan.Max
	// TopK builds an ORDER BY … LIMIT operator.
	TopK = plan.TopK
)

// Join types.
const (
	Inner     = plan.Inner
	LeftOuter = plan.LeftOuter
	Semi      = plan.Semi
	Anti      = plan.Anti
)

// GatherStats reads a partitioned database once for the statistics
// PlanOptions.Stats takes: with them the rewrite may broadcast a small input
// instead of re-partitioning.
func GatherStats(pdb *PartitionedDatabase) *PlanStats { return plan.GatherStats(pdb) }

// Rewrite applies the locality-aware rewrite of Section 2.2 to a logical
// plan under a partitioning configuration.
func Rewrite(root PlanNode, s *Schema, cfg *Config, opt PlanOptions) (*Rewritten, error) {
	return plan.Rewrite(root, s, cfg, opt)
}

// ---- static verification (internal/check) ----

// Verify statically re-proves the invariants of a rewritten plan without
// executing it: the recorded Dup/Part properties, join locality,
// PREF-duplicate freedom, and the soundness of the design it was rewritten
// against. The engine runs this automatically before every execution when
// ExecOptions.Verify is set or the PREF_VERIFY environment variable is
// non-empty; cmd/prefcheck exposes it on the command line.
func Verify(rw *Rewritten) error { return check.Verify(rw) }

// VerifyDesign statically checks a partitioning configuration against a
// schema: acyclic PREF chains rooted at proper seed tables, existing
// columns, and equi-join-compatible partitioning predicates.
func VerifyDesign(s *Schema, cfg *Config) error { return check.VerifyDesign(s, cfg) }

// Fault sentinel errors, for errors.Is against failed executions.
var (
	// ErrPartitionLost matches unrecoverable partition losses.
	ErrPartitionLost = fault.ErrPartitionLost
	// ErrNodeFailed matches work units that exhausted their retry budget.
	ErrNodeFailed = fault.ErrNodeFailed
	// ErrShipmentFailed matches exchanges that exhausted their retry budget.
	ErrShipmentFailed = fault.ErrShipmentFailed
)

// ---- cluster resilience layer ----

// Cluster health-layer types. A Cluster is the long-lived membership and
// health layer shared across queries: per-node health state machine and
// circuit breaker, degraded-mode routing, hedged stragglers, and
// partition rebuild at the passing probe. It bounds and queues nothing —
// admission is the Server's. Attach one via ExecOptions.Cluster; a nil
// Cluster disables the layer.
type (
	// Cluster is the cross-query node-health layer.
	Cluster = cluster.Cluster
	// ClusterOptions configures breaker thresholds and the hedging policy.
	ClusterOptions = cluster.Options
	// ClusterView is one query's immutable health snapshot.
	ClusterView = cluster.View
	// ClusterStats is a snapshot of the cross-query health counters.
	ClusterStats = cluster.Stats
	// NodeState is one node's position in the health state machine.
	NodeState = cluster.State
	// HedgePolicy configures speculative duplicates for straggling units.
	HedgePolicy = cluster.HedgePolicy
)

// Node health states (healthy → suspect → down → recovering → healthy).
const (
	NodeHealthy    = cluster.Healthy
	NodeSuspect    = cluster.Suspect
	NodeDown       = cluster.Down
	NodeRecovering = cluster.Recovering
)

// ErrNodeTripped matches work units failed fast by an open breaker, for
// errors.Is against failed executions.
var ErrNodeTripped = cluster.ErrNodeTripped

// NewCluster builds a cluster health layer; it owns no goroutine, and
// Close only makes it refuse later queries. Pass it to queries via
// ExecOptions.Cluster.
func NewCluster(opt ClusterOptions) *Cluster { return cluster.New(opt) }

// ---- multi-tenant serving layer ----

// Serving-layer types. A Server is a long-lived multi-tenant query server
// over one partitioned database: per-tenant token-bucket quotas and
// weighted-fair admission, cost-priced load shedding, bounded retry
// budgets, a plan cache keyed on the prepared query, streaming delivery
// with backpressure, end-to-end deadline propagation, and graceful drain.
type (
	// Server is the multi-tenant query server (serve.Server).
	Server = serve.Server
	// ServeOptions configures a Server (catalog, tenants, admission
	// ladder bounds, fault hooks).
	ServeOptions = serve.Options
	// TenantConfig declares one tenant: fair-share weight plus an
	// optional token-bucket quota (sustained rate + burst).
	TenantConfig = serve.TenantConfig
	// QueryStream delivers one result in bounded chunks with
	// backpressure; the serving slot is held until it is drained/closed.
	QueryStream = serve.Stream
	// QueryResponse is one fully materialized result plus serving
	// metadata (epoch, attempts, cache hit, latency).
	QueryResponse = serve.Response
	// ServeMetrics snapshots a server's counters (outcomes by class,
	// rejections by ladder stage, latency quantiles, cluster stats).
	ServeMetrics = serve.Metrics
	// LatencySummary is a fixed quantile snapshot (p50/p99/p999/max).
	LatencySummary = stats.LatencySummary
	// RejectedError is a typed admission rejection: the ladder rung, the
	// tenant, the priced cost, and a Retry-After hint. Unwrap matches the
	// rung's sentinel via errors.Is.
	RejectedError = serve.RejectedError
)

// Serving-layer sentinel errors, for errors.Is against failed
// submissions. Together with the fault sentinels they form the complete
// rejection taxonomy: every query a server turns away fails with exactly
// one of these.
var (
	// ErrDeadlineExceeded matches queries killed by an expired deadline —
	// client context or per-query timeout — anywhere along the path;
	// context.DeadlineExceeded stays matchable underneath. Deliberately
	// distinct from ErrAdmissionTimeout.
	ErrDeadlineExceeded = engine.ErrDeadlineExceeded
	// ErrAllNodesDown matches queries with no surviving node to run on
	// (every node permanently failed or breaker-tripped); transient when
	// breakers are the cause, so worth retrying after cool-down.
	ErrAllNodesDown = engine.ErrAllNodesDown
	// ErrQuotaExceeded matches rejections by a tenant's token bucket.
	ErrQuotaExceeded = serve.ErrQuotaExceeded
	// ErrOverloaded matches queries shed by cost-priced overload
	// protection.
	ErrOverloaded = serve.ErrOverloaded
	// ErrAdmissionTimeout matches queries that timed out waiting in the
	// server's queue for a serving slot — the only place a query queues.
	ErrAdmissionTimeout = serve.ErrAdmissionTimeout
	// ErrServerClosed matches submissions against a draining server.
	ErrServerClosed = serve.ErrServerClosed
	// ErrUnknownTenant / ErrUnknownQuery match submissions outside the
	// configured tenant set / prepared catalog.
	ErrUnknownTenant = serve.ErrUnknownTenant
	ErrUnknownQuery  = serve.ErrUnknownQuery
)

// NewServer starts a multi-tenant serving layer over a database (or an
// already-partitioned one shared with a write path). The caller must
// Close it; Close drains gracefully and leaks no goroutines.
func NewServer(opt ServeOptions) (*Server, error) { return serve.NewServer(opt) }

// Execute runs a rewritten plan against a partitioned database.
func Execute(rw *Rewritten, pdb *PartitionedDatabase) (*Result, error) {
	return ExecuteOpts(rw, pdb, ExecOptions{})
}

// ExecuteOpts is Execute with an explicit execution model — buffer-pool
// size, and fault injection via ExecOptions.Fault.
func ExecuteOpts(rw *Rewritten, pdb *PartitionedDatabase, opt ExecOptions) (*Result, error) {
	return engine.ExecuteCtx(context.Background(), rw, pdb, opt)
}

// ExecuteCtx is ExecuteOpts under a caller-supplied context: cancelling it
// aborts all in-flight per-node work.
func ExecuteCtx(ctx context.Context, rw *Rewritten, pdb *PartitionedDatabase, opt ExecOptions) (*Result, error) {
	return engine.ExecuteCtx(ctx, rw, pdb, opt)
}

// Run rewrites and executes a logical plan in one step. The rewrite is
// priced with the statistics of pdb (GatherStats), as the server's is.
func Run(root PlanNode, s *Schema, cfg *Config, pdb *PartitionedDatabase) (*Result, error) {
	rw, err := plan.Rewrite(root, s, cfg, plan.Options{Stats: plan.GatherStats(pdb)})
	if err != nil {
		return nil, err
	}
	return Execute(rw, pdb)
}

// Explain is Run with per-operator tracing enabled: the result carries a
// Trace whose Render is an EXPLAIN ANALYZE of the executed plan (observed
// per-operator, per-node cardinalities, shipped bytes, dedup hits, fault
// retries and wall times annotated onto the physical operator tree).
func Explain(root PlanNode, s *Schema, cfg *Config, pdb *PartitionedDatabase) (*Result, error) {
	rw, err := plan.Rewrite(root, s, cfg, plan.Options{Stats: plan.GatherStats(pdb)})
	if err != nil {
		return nil, err
	}
	return ExecuteOpts(rw, pdb, ExecOptions{Trace: true})
}

// DefaultCostModel approximates the paper's commodity cluster.
func DefaultCostModel() CostModel { return engine.DefaultCostModel() }

// ---- bulk loading (Section 2.3) ----

// Loader incrementally loads tuples into a partitioned database using
// partition indexes.
type Loader = bulkload.Loader

// NewLoader prepares a bulk loader for a partitioned database.
func NewLoader(pdb *PartitionedDatabase, cfg *Config) *Loader {
	return bulkload.NewLoader(pdb, cfg)
}

// ---- crash-consistent write path ----

// Write-path types: the loader applies logical operation batches through
// a write intent log and publishes each batch as a new immutable epoch;
// concurrent queries keep reading their admission-time snapshot
// (Result.Epoch reports which).
type (
	// Op is one logical write operation in a batch (Loader.Apply).
	Op = bulkload.Op
	// OpKind distinguishes insert, delete, and update operations.
	OpKind = bulkload.OpKind
	// Commit summarizes one applied batch: its published epoch and the
	// stored/removed/rewritten copy counts.
	Commit = bulkload.Commit
	// RecoveryReport summarizes a Loader.Recover run: pending intents
	// replayed and torn rows discarded.
	RecoveryReport = bulkload.RecoveryReport
	// WriteMetrics meters the write path (Loader.Metrics): batches,
	// logical ops, stored copies, crashes, replays, write amplification.
	WriteMetrics = trace.WriteMetrics
	// Version is one immutable published epoch of a partitioned table.
	Version = table.Version
	// DBSnapshot is a database-wide pinned epoch across all tables.
	DBSnapshot = table.DBSnapshot
)

// Operation kinds.
const (
	OpInsert = bulkload.OpInsert
	OpDelete = bulkload.OpDelete
	OpUpdate = bulkload.OpUpdate
)

// Write-path sentinel errors.
var (
	// ErrWriteCrashed marks a write batch killed mid-flight by fault
	// injection; the store is torn until Loader.Recover runs.
	ErrWriteCrashed = fault.ErrWriteCrashed
	// ErrNeedRecovery gates writes on a torn loader: every Apply fails
	// with it until Recover has rolled back and replayed the intent log.
	ErrNeedRecovery = bulkload.ErrNeedRecovery
)

// InsertOp builds an insert operation for Loader.Apply.
func InsertOp(tbl string, row Tuple) Op { return bulkload.Insert(tbl, row) }

// DeleteOp builds a delete-by-column-values operation for Loader.Apply.
func DeleteOp(tbl string, cols []string, vals Tuple) Op {
	return bulkload.Delete(tbl, cols, vals)
}

// UpdateOp builds an update operation for Loader.Apply: rows matching
// cols=vals get setCol overwritten with setVal.
func UpdateOp(tbl string, cols []string, vals Tuple, setCol string, setVal int64) Op {
	return bulkload.Update(tbl, cols, vals, setCol, setVal)
}

// VerifyStore checks every stored tuple copy against the partitioning
// configuration: untorn partitions, dup/hasRef accounting, placement
// justified by the scheme (partition indexes cover all stored partnered
// keys), and logical row counters. The write path re-establishes these
// invariants after every recovery; VerifyStore is the independent
// witness that it did.
func VerifyStore(pdb *PartitionedDatabase, cfg *Config) error {
	return check.VerifyStore(pdb, cfg)
}

// ---- benchmark substrates ----

// Benchmark substrate types.
type (
	// TPCH is a generated TPC-H database with its 22 queries.
	TPCH = tpch.TPCH
	// TPCDS is a generated TPC-DS database.
	TPCDS = tpcds.TPCDS
)

// GenerateTPCH builds a deterministic TPC-H database at the given scale
// factor (SF 1 = official cardinalities; experiments use reduced SF).
func GenerateTPCH(sf float64, seed int64) *TPCH { return tpch.Generate(sf, seed) }

// GenerateTPCDS builds a deterministic, Zipf-skewed TPC-DS database.
func GenerateTPCDS(sf float64, seed int64) *TPCDS { return tpcds.Generate(sf, seed) }

// TPCHWorkload returns the 22 TPC-H queries as workload specs for
// WorkloadDriven.
func TPCHWorkload() []Query { return tpch.Workload() }

// TPCDSWorkload returns the 99 TPC-DS queries (one spec per SPJA block)
// as workload specs for WorkloadDriven.
func TPCDSWorkload() []Query { return tpcds.Workload() }

// TPCHQueryNames lists the 22 TPC-H query names in order.
func TPCHQueryNames() []string { return append([]string(nil), tpch.QueryNames...) }

// FilterWorkload removes (replicated) tables from workload query graphs.
func FilterWorkload(w []Query, excluded []string) []Query {
	return design.FilterWorkload(w, excluded)
}

// FromMoney / ToMoney / FromDate helpers re-exported for data loading.
var (
	FromMoney = value.FromMoney
	ToMoney   = value.ToMoney
	FromDate  = value.FromDate
	ToDate    = value.ToDate
	FromFloat = value.FromFloat
	ToFloat   = value.ToFloat
)
