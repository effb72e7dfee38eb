package check

import (
	"fmt"
	"slices"
	"strings"

	"pref/internal/plan"
	"pref/internal/trace"
	"pref/internal/value"
)

// Trace rules (VerifyTrace): the runtime complement of Verify. Where
// Verify proves locality and duplicate-freedom statically, VerifyTrace
// replays those proofs against what one execution actually observed —
// a trace showing rows shipped through an operator the checker proved
// local is a bug, caught automatically after every traced+verified run.
const (
	// RuleTraceShape marks traces whose operator tree does not mirror
	// the physical plan (missing spans, mismatched arity, unexecuted
	// operators in a successful run).
	RuleTraceShape Rule = "trace-shape"
	// RuleTraceShip marks rows shipped by an operator that is not a
	// data-movement operator — the runtime face of RuleLocality: a
	// statically-local join, scan (absent redundancy recovery), or any
	// other node-local operator observed putting rows on the wire.
	RuleTraceShip Rule = "trace-ship"
	// RuleTraceConserve marks span row counts that violate the
	// operator's conservation law (e.g. a projection emitting more rows
	// than it consumed, an exchange losing rows that were not
	// deduplicated, an operator consuming rows its child never produced).
	RuleTraceConserve Rule = "trace-conserve"
	// RuleTraceStats marks disagreement between the query's flat Stats
	// counters and the sum of span contributions.
	RuleTraceStats Rule = "trace-stats"
)

// VerifyTrace cross-checks a finished execution trace against the
// rewritten plan it came from: tree shape, per-operator conservation
// laws, ship legality, and agreement of span sums with the query-level
// totals. It returns nil or a Violations error, like Verify.
func VerifyTrace(rw *plan.Rewritten, tr *trace.Trace) error {
	var vs Violations
	if tr == nil || tr.Root == nil {
		return Violations{{Rule: RuleTraceShape, Detail: "no trace recorded"}}
	}
	if tr.Root.Kind != trace.KindResult || len(tr.Root.Children) != 1 {
		return Violations{{Rule: RuleTraceShape,
			Detail: fmt.Sprintf("root span is %s with %d children, want result with 1",
				tr.Root.Kind, len(tr.Root.Children))}}
	}

	tv := &traceVerifier{n: tr.N, nodeWork: make([]int64, tr.N), rw: rw, stacks: map[plan.Node][]plan.Node{}}
	tv.findStacks(rw.Root, nil)
	// The synthetic Result span has no plan node; its child anchors the
	// lockstep walk over the plan tree.
	tv.checkOp(nil, tr.Root, &vs)
	tv.checkEdge(nil, tr.Root, []*trace.OpTrace{tr.Root.Children[0]}, &vs)
	tv.checkProbes(nil, rw.Root, tr.Root, tr.Root.Children[0], &vs)
	tv.walk(rw.Root, tr.Root.Children[0], &vs)
	tv.checkTotals(tr, &vs)

	if len(vs) == 0 {
		return nil
	}
	return vs
}

// traceVerifier accumulates span sums while walking plan and trace trees
// in lockstep.
type traceVerifier struct {
	n        int
	rw       *plan.Rewritten
	sum      trace.Metrics // rollup of every span
	nodeWork []int64       // per-node Work rollup (MaxNodeRows check)
	reparts  int           // spans that count as Stats.Repartitions
	bcasts   int           // spans that count as Stats.Broadcasts
	xfers    int           // spans that count as Stats.Transfers
	// stacks maps each base-table scan to the Filter and RuntimeFilter
	// nodes directly over it: the filter stack that may read it through an
	// index.
	stacks map[plan.Node][]plan.Node
}

// findStacks records, for every scan under n, the filters chain holds
// directly over it.
func (tv *traceVerifier) findStacks(n plan.Node, chain []plan.Node) {
	switch n.(type) {
	case *plan.ScanNode:
		tv.stacks[n] = chain
		return
	case *plan.FilterNode, *plan.RuntimeFilterNode:
		chain = append(chain, n)
	default:
		chain = nil
	}
	for _, k := range n.Children() {
		tv.findStacks(k, slices.Clip(chain))
	}
}

func (tv *traceVerifier) walk(n plan.Node, ot *trace.OpTrace, vs *Violations) {
	kids := n.Children()
	if len(kids) != len(ot.Children) {
		*vs = append(*vs, &Violation{Rule: RuleTraceShape, Node: n,
			Detail: fmt.Sprintf("span %q has %d children, plan operator has %d",
				ot.Label, len(ot.Children), len(kids))})
		return
	}
	tv.checkOp(n, ot, vs)
	tv.checkEdge(n, ot, ot.Children, vs)
	for i := range kids {
		tv.checkProbes(n, kids[i], ot, ot.Children[i], vs)
		tv.walk(kids[i], ot.Children[i], vs)
	}
}

// checkProbes applies the index-read law to span ot of plan node n, whose
// parent span is parent, of plan node pn: only a scan under a filter stack
// holding a runtime filter, local or shipped, on a column with a key index,
// or a Filter with literal bounds on a DATE column looks rows up in an index,
// and on each node where it does, its work is its probes plus the rows the
// index named there — the rows the stack's lowest filter, its parent,
// examined: its input less what it counts as skipped. The law
// counts per node, so it holds only where each node ran its own partitions
// once: it is not checked when a unit of the scan or of the filter failed
// over or was hedged, and work a crashed attempt burned is not counted.
func (tv *traceVerifier) checkProbes(pn, n plan.Node, parent, ot *trace.OpTrace, vs *Violations) {
	if ot.Totals.IndexProbes == 0 {
		return
	}
	bad := func(format string, args ...any) {
		*vs = append(*vs, &Violation{Rule: RuleTraceConserve, Node: n,
			Detail: fmt.Sprintf("span %q: ", ot.Label) + fmt.Sprintf(format, args...)})
	}
	admits := false
	for _, f := range tv.stacks[n] {
		admits = admits || tv.keyed(f, n) || tv.dateBounded(f, n)
	}
	if ot.Kind != trace.KindScan || !admits {
		bad("%d index probes on a %s under a %s; only a scan under a filter stack with a runtime filter on a key-indexed column or a date-bounded filter reads through an index",
			ot.Totals.IndexProbes, ot.Kind, parent.Kind)
		return
	}
	for _, m := range []trace.Metrics{ot.Totals, parent.Totals} {
		if m.Failovers > 0 || m.Hedges > 0 {
			return
		}
	}
	examined := map[int]int64{}
	for _, nm := range parent.Nodes {
		examined[nm.Node] = nm.RowsIn - nm.SkippedRows
	}
	for _, nm := range ot.Nodes {
		if nm.IndexProbes == 0 {
			continue
		}
		if work := nm.Work - nm.WastedRows; work != nm.IndexProbes+examined[nm.Node] {
			bad("node %d read through an index with work %d, want %d probes + %d rows its filter examined",
				nm.Node, work, nm.IndexProbes, examined[nm.Node])
		}
	}
}

// keyed reports whether pn is a runtime filter on a column of the table n
// scans that carries a key index (catalog.Schema.KeyIndexed): the columns the
// engine reads through a key index.
func (tv *traceVerifier) keyed(pn, n plan.Node) bool {
	f, ok := pn.(*plan.RuntimeFilterNode)
	scan, isScan := n.(*plan.ScanNode)
	if !ok || !isScan {
		return false
	}
	t := tv.rw.Catalog.Table(scan.Table)
	if t == nil {
		return false
	}
	c, err := tv.rw.Schemas[n].IndexOf(f.Col)
	return err == nil && c < len(t.Columns) && tv.rw.Catalog.KeyIndexed(t, t.Columns[c].Name)
}

// dateBounded reports whether pn is a Filter whose predicate bounds with a
// literal a DATE column of the table n scans, one with no key index: the
// columns the engine reads through a date index.
func (tv *traceVerifier) dateBounded(pn, n plan.Node) bool {
	f, ok := pn.(*plan.FilterNode)
	scan, isScan := n.(*plan.ScanNode)
	if !ok || !isScan {
		return false
	}
	t := tv.rw.Catalog.Table(scan.Table)
	if t == nil {
		return false
	}
	sch := tv.rw.Schemas[n]
	for c, col := range t.Columns {
		if col.Kind != value.Date || c >= len(sch) || tv.rw.Catalog.KeyIndexed(t, col.Name) {
			continue
		}
		if _, _, _, ok := plan.LiteralRange(f.Pred, sch[c].Name); ok {
			return true
		}
	}
	return false
}

// readsIndex reports whether span ot's only child is a scan that read some
// partition through an index: its read names one, though it may have
// probed none when a runtime filter held no key.
func readsIndex(ot *trace.OpTrace) bool {
	if len(ot.Children) != 1 || ot.Children[0].Kind != trace.KindScan {
		return false
	}
	for _, r := range strings.Split(ot.Children[0].Totals.Read, "+") {
		if r != "" && r != "whole" {
			return true
		}
	}
	return false
}

// checkOp applies the per-operator rules: kind sanity, ship legality,
// dedup legality, and the intra-operator conservation law over the span's
// rolled-up row counts. It also accumulates the span into the verifier's
// totals.
func (tv *traceVerifier) checkOp(n plan.Node, ot *trace.OpTrace, vs *Violations) {
	m := &ot.Totals
	tv.accumulate(ot)

	bad := func(rule Rule, format string, args ...any) {
		*vs = append(*vs, &Violation{Rule: rule, Node: n,
			Detail: fmt.Sprintf("span %q: ", ot.Label) + fmt.Sprintf(format, args...)})
	}

	if ot.Kind == trace.KindUnexecuted {
		bad(RuleTraceShape, "operator present in plan but never executed in a successful run")
		return
	}

	// Ship legality: only exchange operators move rows — except a scan
	// reconstructing a lost partition from PREF/replication redundancy,
	// whose recovered rows travel from survivors to the buddy node. Bytes
	// travel without rows only into a shipped runtime filter, which receives
	// its source's key sets and ships no row at all; a local filter probes
	// the one its own node built, so nothing travels into it.
	if m.RowsShipped > 0 && !ot.Kind.Exchange() {
		if !(ot.Kind == trace.KindScan && m.RecoveredRows > 0) {
			bad(RuleTraceShip,
				"%d rows shipped by a non-exchange operator the checker proved local",
				m.RowsShipped)
		}
	}
	if m.RowsShipped == 0 && m.BytesShipped > 0 && ot.Kind != trace.KindRuntimeFilter {
		bad(RuleTraceShip, "%d bytes shipped with no rows by a %s operator", m.BytesShipped, ot.Kind)
	}
	runtime := ot.Kind == trace.KindRuntimeFilter || ot.Kind == trace.KindLocalFilter
	if m.FilteredRows > 0 && !runtime {
		bad(RuleTraceConserve, "%d rows filtered by a %s operator, which holds no runtime filter",
			m.FilteredRows, ot.Kind)
	}
	if m.SkippedRows > 0 && !((runtime || ot.Kind == trace.KindFilter) && readsIndex(ot)) {
		bad(RuleTraceConserve, "%d rows skipped under a %s operator, which is no filter over a scan read through an index",
			m.SkippedRows, ot.Kind)
	}
	if f, ok := n.(*plan.RuntimeFilterNode); ok && f.Local != (ot.Kind == trace.KindLocalFilter) {
		bad(RuleTraceShape, "the plan's filter has local=%v, its span is a %s", f.Local, ot.Kind)
	}
	// Hedge legality: speculative duplicates race partition work units,
	// which only per-partition operators run. Exchanges and the
	// coordinator Result execute on the query goroutine and must never
	// carry hedge counters.
	if m.Hedges > 0 || m.HedgeWins > 0 || m.HedgeWastedRows > 0 {
		switch ot.Kind {
		case trace.KindRepartition, trace.KindBroadcast, trace.KindGather,
			trace.KindDistinctByValue, trace.KindResult:
			bad(RuleTraceShip,
				"hedge counters (hedges=%d wins=%d wasted=%d) on a coordinator-side operator that never hedges",
				m.Hedges, m.HedgeWins, m.HedgeWastedRows)
		}
	}
	if m.HedgeWins > m.Hedges {
		bad(RuleTraceConserve, "hedge wins %d exceed hedges launched %d", m.HedgeWins, m.Hedges)
	}
	if m.DedupHits > 0 {
		switch ot.Kind {
		case trace.KindDistinctPref, trace.KindDistinctByValue,
			trace.KindRepartition, trace.KindBroadcast:
		default:
			bad(RuleTraceConserve, "%d dedup hits on a kind that never deduplicates", m.DedupHits)
		}
	}

	// Intra-operator conservation: what each kind may do to row counts.
	in, out, dedup := m.RowsIn, m.RowsOut, m.DedupHits
	nn := int64(tv.n)
	switch ot.Kind {
	case trace.KindProject:
		if out != in {
			bad(RuleTraceConserve, "projection must preserve cardinality: in=%d out=%d", in, out)
		}
	case trace.KindFilter, trace.KindTopK:
		if out > in-m.SkippedRows {
			bad(RuleTraceConserve, "out=%d exceeds in=%d less skipped=%d", out, in, m.SkippedRows)
		}
	case trace.KindRuntimeFilter, trace.KindLocalFilter:
		if out != in-m.FilteredRows || m.SkippedRows > m.FilteredRows {
			bad(RuleTraceConserve, "rows lost or invented: in=%d filtered=%d skipped=%d out=%d", in, m.FilteredRows, m.SkippedRows, out)
		}
	case trace.KindDistinctPref, trace.KindRepartition, trace.KindDistinctByValue:
		if out != in-dedup {
			bad(RuleTraceConserve, "rows lost or invented: in=%d dedup=%d out=%d", in, dedup, out)
		}
	case trace.KindBroadcast:
		if out != nn*(in-dedup) {
			bad(RuleTraceConserve, "broadcast must fan out to all %d nodes: in=%d dedup=%d out=%d",
				tv.n, in, dedup, out)
		}
	case trace.KindGather, trace.KindResult:
		if out != in {
			bad(RuleTraceConserve, "gather must preserve cardinality: in=%d out=%d", in, out)
		}
	case trace.KindAggregate, trace.KindPartialAgg:
		// Empty partitions of a global aggregation still emit an
		// identity state row each.
		if out > in+nn {
			bad(RuleTraceConserve, "aggregate emitted %d rows from %d inputs on %d nodes", out, in, tv.n)
		}
	case trace.KindFinalAgg:
		// Only the global merge may invent a row (the identity over empty
		// input); a grouped merge emits at most one row per state consumed.
		slack := int64(1)
		if f, ok := n.(*plan.FinalAggNode); ok && len(f.GroupBy) > 0 {
			slack = 0
		}
		if out > in+slack {
			bad(RuleTraceConserve, "final merge emitted %d rows from %d partial states", out, in)
		}
	case trace.KindScan, trace.KindJoin:
		// Scans produce, joins multiply: no cardinality law links their
		// in/out counts.
	}
}

// checkEdge applies the inter-operator conservation law: an operator
// consumes exactly what its children produced. OneCopy exchanges read one
// of the n identical copies of a replicated input, so they consume
// childOut/n.
func (tv *traceVerifier) checkEdge(n plan.Node, ot *trace.OpTrace, children []*trace.OpTrace, vs *Violations) {
	if len(children) == 0 {
		return
	}
	var childOut int64
	for _, c := range children {
		childOut += c.Totals.RowsOut
	}
	in := ot.Totals.RowsIn
	if ot.ReadOne {
		in *= int64(tv.n)
	}
	if in != childOut {
		*vs = append(*vs, &Violation{Rule: RuleTraceConserve, Node: n,
			Detail: fmt.Sprintf("span %q: consumed %d rows but children produced %d%s",
				ot.Label, ot.Totals.RowsIn, childOut, readOneNote(ot))})
	}
}

func readOneNote(ot *trace.OpTrace) string {
	if ot.ReadOne {
		return " (OneCopy: expects n·in = child out)"
	}
	return ""
}

// accumulate folds one span into the query-wide sums for checkTotals.
func (tv *traceVerifier) accumulate(ot *trace.OpTrace) {
	m := &ot.Totals
	tv.sum.RowsShipped += m.RowsShipped
	tv.sum.BytesShipped += m.BytesShipped
	tv.sum.Work += m.Work
	tv.sum.Retries += m.Retries
	tv.sum.Failovers += m.Failovers
	tv.sum.WastedRows += m.WastedRows
	tv.sum.RecoveredRows += m.RecoveredRows
	tv.sum.Hedges += m.Hedges
	tv.sum.HedgeWins += m.HedgeWins
	tv.sum.HedgeWastedRows += m.HedgeWastedRows
	for _, nm := range ot.Nodes {
		if nm.Node >= 0 && nm.Node < len(tv.nodeWork) {
			tv.nodeWork[nm.Node] += nm.Work
		}
	}
	switch ot.Kind {
	case trace.KindRepartition, trace.KindDistinctByValue:
		tv.reparts++
	case trace.KindBroadcast:
		tv.bcasts++
	case trace.KindRuntimeFilter:
		tv.xfers++
	}
}

// checkTotals diffs the span sums against the query-level flat counters
// (engine.Stats, carried as trace.Totals).
func (tv *traceVerifier) checkTotals(tr *trace.Trace, vs *Violations) {
	t := tr.Totals
	bad := func(format string, args ...any) {
		*vs = append(*vs, &Violation{Rule: RuleTraceStats, Detail: fmt.Sprintf(format, args...)})
	}
	if tv.sum.RowsShipped != t.RowsShipped {
		bad("span RowsShipped sum %d != Stats.RowsShipped %d", tv.sum.RowsShipped, t.RowsShipped)
	}
	if tv.sum.BytesShipped != t.BytesShipped {
		bad("span BytesShipped sum %d != Stats.BytesShipped %d", tv.sum.BytesShipped, t.BytesShipped)
	}
	if tv.sum.Work != t.RowsProcessed {
		bad("span Work sum %d != Stats.RowsProcessed %d", tv.sum.Work, t.RowsProcessed)
	}
	if tv.sum.Retries != int64(t.Retries) {
		bad("span Retries sum %d != Stats.Retries %d", tv.sum.Retries, t.Retries)
	}
	if tv.sum.Failovers != int64(t.Failovers) {
		bad("span Failovers sum %d != Stats.Failovers %d", tv.sum.Failovers, t.Failovers)
	}
	if tv.sum.WastedRows != t.WastedRows {
		bad("span WastedRows sum %d != Stats.WastedRows %d", tv.sum.WastedRows, t.WastedRows)
	}
	if tv.sum.RecoveredRows != t.RecoveredRows {
		bad("span RecoveredRows sum %d != Stats.RecoveredRows %d", tv.sum.RecoveredRows, t.RecoveredRows)
	}
	if tv.sum.Hedges != int64(t.Hedges) {
		bad("span Hedges sum %d != Stats.Hedges %d", tv.sum.Hedges, t.Hedges)
	}
	if tv.sum.HedgeWins != int64(t.HedgeWins) {
		bad("span HedgeWins sum %d != Stats.HedgeWins %d", tv.sum.HedgeWins, t.HedgeWins)
	}
	if tv.sum.HedgeWastedRows != t.HedgeWastedRows {
		bad("span HedgeWastedRows sum %d != Stats.HedgeWastedRows %d", tv.sum.HedgeWastedRows, t.HedgeWastedRows)
	}
	var maxWork int64
	for _, w := range tv.nodeWork {
		if w > maxWork {
			maxWork = w
		}
	}
	if maxWork != t.MaxNodeRows {
		bad("max per-node span Work %d != Stats.MaxNodeRows %d", maxWork, t.MaxNodeRows)
	}
	if tv.reparts != t.Repartitions {
		bad("%d repartitioning spans != Stats.Repartitions %d", tv.reparts, t.Repartitions)
	}
	if tv.bcasts != t.Broadcasts {
		bad("%d broadcast spans != Stats.Broadcasts %d", tv.bcasts, t.Broadcasts)
	}
	if tv.xfers != t.Transfers {
		bad("%d runtime-filter spans != Stats.Transfers %d", tv.xfers, t.Transfers)
	}
}
