// Package trace is the per-query metering and observability layer:
// per-operator, per-node execution counters recorded while a rewritten
// plan runs. The cells are the engine's only ledger — Builder.Totals sums
// them into the query's Stats — and, on request, Builder.Build assembles
// them into the annotated operator tree.
//
// The engine opens one Op per physical plan operator and writes metric
// deltas into per-node cells as partition work units finish. Cells are
// written with atomic adds — partition goroutines for different logical
// partitions can land on the same executing node after a buddy failover,
// so distinct-cell writes are not guaranteed — and the finished tree is
// assembled on the query goroutine once execution completes, so readers
// never race writers ("lock-free-ish sink, merged on the query
// goroutine").
//
// The output, Trace, mirrors the physical plan tree: one OpTrace per
// operator plus a synthetic Result root for the implicit coordinator
// gather. It renders as an EXPLAIN ANALYZE-style annotated plan
// (render.go) and marshals to JSON as-is; internal/check.VerifyTrace
// replays conservation and locality invariants over it after every
// verified execution.
package trace

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pref/internal/plan"
)

// cell is the live, atomics-only counterpart of Metrics: one per node,
// written concurrently by partition goroutines through the Add* mutators
// and read only by addTo. Keeping it a separate type from the exported
// Metrics snapshot means a live counter can only be touched atomically —
// the atomic.Int64 fields have no plain access, and go vet's copylocks
// rejects a copied cell — while snapshot code — rendering, JSON — works on
// plain Metrics values that no goroutine is still writing.
type cell struct {
	rowsIn, rowsOut           atomic.Int64
	rowsShipped, bytesShipped atomic.Int64
	dedupHits, work           atomic.Int64
	retries, wastedRows       atomic.Int64
	failovers, recoveredRows  atomic.Int64
	hedges, hedgeWins         atomic.Int64
	hedgeWastedRows           atomic.Int64
	filteredRows, indexProbes atomic.Int64
	skippedRows               atomic.Int64
	wallNanos                 atomic.Int64
}

// Metrics is one finished cell of execution counters: either one
// (operator, node) pair, or a rollup of such cells. Values are immutable
// snapshots taken on the query goroutine after all work units completed.
type Metrics struct {
	// RowsIn counts input rows the operator actually consumed (for
	// OneCopy exchanges, only the coordinator copy it reads).
	RowsIn int64 `json:"rows_in"`
	// RowsOut counts output rows of successful work units. Output of
	// crashed attempts is excluded (it lands in WastedRows).
	RowsOut int64 `json:"rows_out"`
	// RowsShipped / BytesShipped count this operator's traffic across
	// node boundaries, per shipment attempt (a re-shipped batch counts
	// every time it hits the wire); engine.Stats sums them.
	RowsShipped  int64 `json:"rows_shipped"`
	BytesShipped int64 `json:"bytes_shipped"`
	// DedupHits counts rows removed by the dup=0 PREF-duplicate filter
	// or by value-distinctness before rows leave the operator.
	DedupHits int64 `json:"dedup_hits"`
	// Work counts processed rows charged to the node (the CPU proxy the
	// engine meters), including cache-miss penalties and work burned by
	// crashed attempts.
	Work int64 `json:"work"`
	// Retries counts discarded work-unit attempts and failed shipment
	// attempts; WastedRows is the row payload those attempts burned.
	Retries    int64 `json:"retries"`
	WastedRows int64 `json:"wasted_rows"`
	// Failovers counts partition units redirected to a buddy node.
	Failovers int64 `json:"failovers"`
	// RecoveredRows counts base-table tuple copies rebuilt from PREF /
	// replication redundancy during a scan of a lost partition.
	RecoveredRows int64 `json:"recovered_rows"`
	// Hedges counts speculative duplicate units launched on the node for
	// straggling partitions; HedgeWins counts the hedges that finished
	// first (beating the straggling primary); HedgeWastedRows is the row
	// output of hedge-race losers, discarded after the winner returned.
	Hedges          int64 `json:"hedges"`
	HedgeWins       int64 `json:"hedge_wins"`
	HedgeWastedRows int64 `json:"hedge_wasted_rows"`
	// FilteredRows counts rows a runtime join filter dropped: their key is
	// among none of the source input's keys, or, for a local filter, not
	// among its own source partition's keys, and, on the lowest filter of a
	// stack that read its scan through an index, the rows the index skipped.
	FilteredRows int64 `json:"filtered_rows"`
	// SkippedRows counts, on the lowest filter of a stack that read its
	// scan through an index, the rows the index skipped, which no filter
	// examined.
	SkippedRows int64 `json:"skipped_rows"`
	// IndexProbes counts the lookups a scan made in an index, on each
	// partition it read through one rather than row by row: the distinct
	// keys of a runtime filter above it in a key index, or one range lookup
	// in a date index.
	IndexProbes int64 `json:"index_probes"`
	// Read names, on a scan under a filter stack that may read it through
	// an index, how it read its partitions: keys(col), range(col) or whole,
	// several joined by "+" in name order.
	Read string `json:"read,omitempty"`
	// WallNanos is wall time spent in this operator's work units on the
	// node, including retry backoff and straggler delays.
	WallNanos int64 `json:"wall_nanos"`
}

// Zero reports whether every counter in the cell is zero.
func (m *Metrics) Zero() bool {
	return *m == Metrics{}
}

// addTo adds a live cell's counters to m. Every caller runs on the query
// goroutine after the fan-out joined.
func (c *cell) addTo(m *Metrics) {
	m.RowsIn += c.rowsIn.Load()
	m.RowsOut += c.rowsOut.Load()
	m.RowsShipped += c.rowsShipped.Load()
	m.BytesShipped += c.bytesShipped.Load()
	m.DedupHits += c.dedupHits.Load()
	m.Work += c.work.Load()
	m.Retries += c.retries.Load()
	m.WastedRows += c.wastedRows.Load()
	m.Failovers += c.failovers.Load()
	m.RecoveredRows += c.recoveredRows.Load()
	m.Hedges += c.hedges.Load()
	m.HedgeWins += c.hedgeWins.Load()
	m.HedgeWastedRows += c.hedgeWastedRows.Load()
	m.FilteredRows += c.filteredRows.Load()
	m.SkippedRows += c.skippedRows.Load()
	m.IndexProbes += c.indexProbes.Load()
	m.WallNanos += c.wallNanos.Load()
}

// Op is a live per-operator sink: one Metrics cell per node. All mutators
// are safe on a nil receiver (white-box tests drive work units without a
// sink) and safe to call from concurrent partition goroutines.
type Op struct {
	id      int
	kind    Kind
	readOne bool
	cells   []cell

	mu    sync.Mutex
	reads [][]string // per node, sorted: AddRead's names
}

// Kind classifies an operator for the trace invariants: which
// conservation law its row counts obey and whether it may ship rows.
type Kind string

const (
	KindScan            Kind = "scan"
	KindFilter          Kind = "filter"
	KindProject         Kind = "project"
	KindJoin            Kind = "join"
	KindAggregate       Kind = "aggregate"
	KindPartialAgg      Kind = "partial-agg"
	KindFinalAgg        Kind = "final-agg"
	KindRepartition     Kind = "repartition"
	KindBroadcast       Kind = "broadcast"
	KindDistinctPref    Kind = "distinct-pref"
	KindDistinctByValue Kind = "distinct-by-value"
	KindGather          Kind = "gather"
	KindTopK            Kind = "topk"
	// KindRuntimeFilter receives a join's source key sets — bytes shipped
	// with no rows — and drops the rows whose key none of them holds:
	// in = out + filtered.
	KindRuntimeFilter Kind = "runtime-filter"
	// KindLocalFilter keeps, on each node, exactly the rows whose key is
	// among the keys its join's source holds there: it ships nothing, is no
	// transfer, and keeps in = out + filtered.
	KindLocalFilter Kind = "local-filter"
	// KindResult is the synthetic root: the implicit gather of the plan
	// root's partitions to the coordinator.
	KindResult Kind = "result"
	// KindUnexecuted marks operators present in the plan whose sink was
	// never opened — impossible in a successful run, and flagged by
	// check.VerifyTrace.
	KindUnexecuted Kind = "unexecuted"
)

// Exchange reports whether the kind is a data-movement operator, i.e.
// whether nonzero RowsShipped is legitimate for it. Scans are not
// exchanges but may still ship during PREF-redundancy recovery; check's
// trace rules special-case that via RecoveredRows.
func (k Kind) Exchange() bool {
	switch k {
	case KindRepartition, KindBroadcast, KindDistinctByValue, KindGather, KindResult:
		return true
	}
	return false
}

// AddIn charges consumed input rows to a node's cell.
func (o *Op) AddIn(node, rows int) {
	if o == nil || rows == 0 {
		return
	}
	o.cells[node].rowsIn.Add(int64(rows))
}

// AddOut charges successfully produced output rows to a node's cell.
func (o *Op) AddOut(node, rows int) {
	if o == nil || rows == 0 {
		return
	}
	o.cells[node].rowsOut.Add(int64(rows))
}

// AddShip charges one shipment attempt leaving src.
func (o *Op) AddShip(src, rows int, bytes int64) {
	if o == nil || (rows == 0 && bytes == 0) {
		return
	}
	o.cells[src].rowsShipped.Add(int64(rows))
	o.cells[src].bytesShipped.Add(bytes)
}

// AddFiltered charges rows a runtime filter dropped on a node.
func (o *Op) AddFiltered(node, rows int) {
	if o == nil || rows == 0 {
		return
	}
	o.cells[node].filteredRows.Add(int64(rows))
}

// AddSkipped charges rows an index read skipped under a stack's lowest
// filter on a node.
func (o *Op) AddSkipped(node, rows int) {
	if o == nil || rows == 0 {
		return
	}
	o.cells[node].skippedRows.Add(int64(rows))
}

// AddIndexProbes charges the keys a scan looked up in a key index on a node.
func (o *Op) AddIndexProbes(node, keys int) {
	if o == nil || keys == 0 {
		return
	}
	o.cells[node].indexProbes.Add(int64(keys))
}

// AddRead names a scan's read of a partition it ran on a node (Metrics.Read).
func (o *Op) AddRead(node int, read string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.reads == nil {
		o.reads = make([][]string, len(o.cells))
	}
	if !slices.Contains(o.reads[node], read) {
		o.reads[node] = append(o.reads[node], read)
		slices.Sort(o.reads[node])
	}
}

// AddDedup charges PREF-duplicate (or value-distinctness) filter hits.
func (o *Op) AddDedup(node, hits int) {
	if o == nil || hits == 0 {
		return
	}
	o.cells[node].dedupHits.Add(int64(hits))
}

// AddWork charges processed rows (CPU proxy) to a node's cell.
func (o *Op) AddWork(node, rows int) {
	if o == nil || rows == 0 {
		return
	}
	o.cells[node].work.Add(int64(rows))
}

// AddRetry records one discarded attempt and the row payload it wasted.
func (o *Op) AddRetry(node, wastedRows int) {
	if o == nil {
		return
	}
	o.cells[node].retries.Add(1)
	o.cells[node].wastedRows.Add(int64(wastedRows))
}

// AddFailover records one partition unit redirected to a buddy node.
func (o *Op) AddFailover(node int) {
	if o == nil {
		return
	}
	o.cells[node].failovers.Add(1)
}

// AddRecovered records tuple copies rebuilt from redundancy on node.
func (o *Op) AddRecovered(node, rows int) {
	if o == nil || rows == 0 {
		return
	}
	o.cells[node].recoveredRows.Add(int64(rows))
}

// AddHedge records one speculative duplicate unit launched on node.
func (o *Op) AddHedge(node int) {
	if o == nil {
		return
	}
	o.cells[node].hedges.Add(1)
}

// AddHedgeWin records a hedge that returned before its straggling
// primary.
func (o *Op) AddHedgeWin(node int) {
	if o == nil {
		return
	}
	o.cells[node].hedgeWins.Add(1)
}

// AddHedgeWaste records the discarded row output of a hedge-race loser
// on node.
func (o *Op) AddHedgeWaste(node, rows int) {
	if o == nil || rows == 0 {
		return
	}
	o.cells[node].hedgeWastedRows.Add(int64(rows))
}

// AddWall charges wall time spent in this operator's work on node.
func (o *Op) AddWall(node int, d time.Duration) {
	if o == nil || d <= 0 {
		return
	}
	o.cells[node].wallNanos.Add(int64(d))
}

// SetReadOne marks the operator as consuming only the coordinator copy of
// a replicated/gathered input (the OneCopy exchange flag), which relaxes
// the edge-conservation rule from equality to ≤.
func (o *Op) SetReadOne() {
	if o == nil {
		return
	}
	o.readOne = true
}

// Totals is the query-level rollup of one execution: every field except
// Probes is a sum over the per-(operator, node) cells (Builder.Totals). The
// engine returns it as Result.Stats (engine.Stats is this type), and
// Trace.Totals carries the same value so internal/check can cross-check a
// trace document's span sums against it.
type Totals struct {
	// BytesShipped counts bytes crossing node boundaries (8 bytes per
	// column per shipped row). Re-shipped exchange attempts count every
	// time they hit the wire.
	BytesShipped int64 `json:"bytes_shipped"`
	// RowsShipped counts rows crossing node boundaries.
	RowsShipped int64 `json:"rows_shipped"`
	// RowsProcessed counts rows flowing through all operators on all
	// nodes (total CPU work proxy), including work burned by attempts
	// that crashed and were discarded.
	RowsProcessed int64 `json:"rows_processed"`
	// MaxNodeRows is the largest per-node processed-row count (the
	// parallel critical path).
	MaxNodeRows int64 `json:"max_node_rows"`
	// Repartitions and Broadcasts count exchange operators executed
	// (a by-value distinct shuffles, so it counts as a repartition).
	Repartitions int `json:"repartitions"`
	Broadcasts   int `json:"broadcasts"`
	// Transfers counts shipped runtime join filters executed: each ships one
	// key set per source partition to every other node. A local filter
	// ships nothing and is not counted.
	Transfers int `json:"transfers"`
	// Retries counts discarded work-unit attempts and failed exchange
	// shipments that were retried.
	Retries int `json:"retries"`
	// Failovers counts per-operator partition work units redirected from
	// a permanently failed node to its surviving buddy.
	Failovers int `json:"failovers"`
	// RecoveredRows counts base-table tuple copies reconstructed from
	// surviving duplicate copies (PREF duplicates, replicas) after a
	// partition loss.
	RecoveredRows int64 `json:"recovered_rows"`
	// WastedRows counts rows of work discarded by failed attempts (the
	// output of crashed units, the payload of failed shipments).
	WastedRows int64 `json:"wasted_rows"`
	// Hedges counts speculative duplicate units launched for straggling
	// partitions; HedgeWins counts hedges that finished before their
	// straggling primary; HedgeWastedRows is the discarded row output of
	// hedge-race losers. All zero unless the query runs under a cluster
	// with hedging enabled.
	Hedges          int   `json:"hedges"`
	HedgeWins       int   `json:"hedge_wins"`
	HedgeWastedRows int64 `json:"hedge_wasted_rows"`
	// Probes counts half-open circuit-breaker probes the cluster layer
	// charged to this query at admission; probes have no operator span,
	// so no span-sum law applies.
	Probes int `json:"probes"`
}

// Builder accumulates live Ops during one execution. Begin/Totals/Build
// run on the query goroutine; only the returned Ops' mutators are called
// concurrently.
type Builder struct {
	n      int
	ops    map[plan.Node]*Op
	result *Op
	seq    int
	start  time.Time
	probes int
}

// NewBuilder opens the metering sink for a query over n nodes. probes is
// the number of half-open breaker probes charged to the query at
// admission — the one Totals field no cell carries.
func NewBuilder(n, probes int) *Builder {
	return &Builder{n: n, probes: probes, ops: make(map[plan.Node]*Op), start: time.Now()}
}

// Begin opens (or returns) the sink for one plan operator. Safe on a nil
// builder: returns a nil Op whose mutators are no-ops.
func (b *Builder) Begin(n plan.Node, kind Kind) *Op {
	if b == nil {
		return nil
	}
	if op, ok := b.ops[n]; ok {
		return op
	}
	op := b.newOp(kind)
	b.ops[n] = op
	return op
}

// BeginResult opens the synthetic root sink for the implicit final gather
// to the coordinator.
func (b *Builder) BeginResult() *Op {
	if b == nil {
		return nil
	}
	if b.result == nil {
		b.result = b.newOp(KindResult)
	}
	return b.result
}

func (b *Builder) newOp(kind Kind) *Op {
	op := &Op{id: b.seq, kind: kind, cells: make([]cell, b.n)}
	b.seq++
	return op
}

// Totals sums the live cells into the query-level counters, by the rule
// check.VerifyTrace recomputes from a finished document: each field is the
// sum over every (operator, node) cell, MaxNodeRows is the largest per-node
// Work sum, and Repartitions/Broadcasts/Transfers count opened operators by
// kind.
// Call on the query goroutine after the last fan-out joined.
func (b *Builder) Totals() Totals {
	if b == nil {
		return Totals{}
	}
	t := Totals{Probes: b.probes}
	for _, op := range b.ops {
		switch op.kind {
		case KindRepartition, KindDistinctByValue:
			t.Repartitions++
		case KindBroadcast:
			t.Broadcasts++
		case KindRuntimeFilter:
			t.Transfers++
		}
	}
	var sum Metrics
	for node := 0; node < b.n; node++ {
		before := sum.Work
		for _, op := range b.ops {
			op.cells[node].addTo(&sum)
		}
		if b.result != nil {
			b.result.cells[node].addTo(&sum)
		}
		if work := sum.Work - before; work > t.MaxNodeRows {
			t.MaxNodeRows = work
		}
	}
	t.BytesShipped = sum.BytesShipped
	t.RowsShipped = sum.RowsShipped
	t.RowsProcessed = sum.Work
	t.Retries = int(sum.Retries)
	t.Failovers = int(sum.Failovers)
	t.RecoveredRows = sum.RecoveredRows
	t.WastedRows = sum.WastedRows
	t.Hedges = int(sum.Hedges)
	t.HedgeWins = int(sum.HedgeWins)
	t.HedgeWastedRows = sum.HedgeWastedRows
	return t
}

// NodeMetrics is the finished cell of one (operator, node) pair.
type NodeMetrics struct {
	Node int `json:"node"`
	Metrics
}

// OpTrace is one operator's finished span: identity, per-node cells with
// activity, and their rollup.
type OpTrace struct {
	ID    int    `json:"id"`
	Kind  Kind   `json:"kind"`
	Label string `json:"label"`
	// Prop is the operator's recorded partitioning property rendering
	// (e.g. "PREF[lineitem]"), empty for the synthetic Result op.
	Prop string `json:"prop,omitempty"`
	// ReadOne marks OneCopy exchanges: the operator consumed only the
	// coordinator copy of its replicated/gathered input.
	ReadOne bool `json:"read_one,omitempty"`
	// Nodes holds the per-node cells that saw any activity, in node
	// order.
	Nodes []NodeMetrics `json:"nodes,omitempty"`
	// Totals sums all per-node cells.
	Totals   Metrics    `json:"totals"`
	Children []*OpTrace `json:"children,omitempty"`
}

// Trace is the finished telemetry of one query: the annotated operator
// tree plus the query-level rollup.
type Trace struct {
	// N is the node (partition) count of the executing database.
	N int `json:"n"`
	// Root is the synthetic Result operator; Root.Children[0] is the
	// plan root.
	Root *OpTrace `json:"root"`
	// Totals is the query's Stats (the sum of the cells at Build time),
	// for cross-checking a document's span sums.
	Totals Totals `json:"totals"`
	// WallNanos is end-to-end query wall time at the coordinator.
	WallNanos int64 `json:"wall_nanos"`
}

// Build assembles the finished trace by walking the physical plan tree,
// rendering each operator's label and property here rather than at Begin:
// the cells are recorded for every query, the tree only for queries that
// ask for it. Call after execution completes; the result shares no state
// with the live Ops. Operators the engine never opened (on error paths)
// appear with zero metrics.
func (b *Builder) Build(rw *plan.Rewritten) *Trace {
	if b == nil {
		return nil
	}
	var walk func(n plan.Node) *OpTrace
	walk = func(n plan.Node) *OpTrace {
		op := b.ops[n]
		if op == nil {
			op = b.newOp(KindUnexecuted)
		}
		ot := op.finish(n.String())
		if p := rw.Props[n]; p != nil {
			ot.Prop = p.String()
		}
		for _, c := range n.Children() {
			ot.Children = append(ot.Children, walk(c))
		}
		return ot
	}
	planRoot := walk(rw.Root)
	res := b.result
	if res == nil {
		res = b.newOp(KindResult)
	}
	root := res.finish("Result")
	root.Children = []*OpTrace{planRoot}
	return &Trace{
		N:         b.n,
		Root:      root,
		Totals:    b.Totals(),
		WallNanos: int64(time.Since(b.start)),
	}
}

// finish snapshots a live Op into an immutable OpTrace (without
// children) under the given label.
func (o *Op) finish(label string) *OpTrace {
	ot := &OpTrace{ID: o.id, Kind: o.kind, Label: label, ReadOne: o.readOne}
	var reads []string
	for node := range o.cells {
		var m Metrics
		o.cells[node].addTo(&m)
		if o.reads != nil {
			m.Read = strings.Join(o.reads[node], "+")
			for _, r := range o.reads[node] {
				if !slices.Contains(reads, r) {
					reads = append(reads, r)
				}
			}
		}
		if m.Zero() {
			continue
		}
		ot.Nodes = append(ot.Nodes, NodeMetrics{Node: node, Metrics: m})
		o.cells[node].addTo(&ot.Totals) // quiescent: reads the same values again
	}
	slices.Sort(reads)
	ot.Totals.Read = strings.Join(reads, "+")
	return ot
}

// Walk visits every operator span depth-first, root first.
func (t *Trace) Walk(fn func(*OpTrace)) {
	if t == nil || t.Root == nil {
		return
	}
	var walk func(*OpTrace)
	walk = func(ot *OpTrace) {
		fn(ot)
		for _, c := range ot.Children {
			walk(c)
		}
	}
	walk(t.Root)
}
