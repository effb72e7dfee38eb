package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"pref/internal/batch"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/trace"
	"pref/internal/value"
)

// The row reference.
//
// These are the row-at-a-time forms of the operators the product implements
// only over columnar batches, plus the dispatcher that routes a whole plan
// through them. They are the differential reference: executeRef drives them
// through the same executeCtx as the product — admission, snapshot pin,
// fault injector, nextOp sequence, trace builder, Result assembly — so the
// only thing that differs between the two runs of a query is which code
// processes the rows. Rows stay rows from the scan to the root; liftParts
// below is the reference's one conversion, at the edge where executeCtx
// takes over. What the twins share with the product is what has no form: a
// group's accumulators (aggState, finalValue), an order term's comparison
// (orderTerm), the key and hash encodings, and the recovery admission.
//
// TestVecRow* (vec_test.go, oracle_test.go) hold the product to this
// reference in rows, Stats, trace totals and failure agreement;
// TestReferenceRunsRowOperators pins that the two entries really run
// different code.

// executeRef is ExecuteCtx over the row reference.
func executeRef(ctx context.Context, rw *plan.Rewritten, pdb *table.PartitionedDatabase, opt ExecOptions) (*Result, error) {
	return executeCtx(ctx, rw, pdb, opt, func(ex *executor, n plan.Node) (vparts, error) {
		rows, err := ex.refEval(n)
		if err != nil {
			return nil, err
		}
		parts := liftParts(rows, len(ex.rw.Schemas[n]))
		ex.owed = append(ex.owed, parts) // for the Result assembly to release
		return parts, nil
	})
}

// liftParts copies the reference's per-partition output rows into batches,
// the form executeCtx assembles a Result from.
func liftParts(in [][]value.Tuple, width int) vparts {
	out := make(vparts, len(in))
	for p, rows := range in {
		w := batch.NewWriter(width)
		for _, r := range rows {
			w.AppendTuple(r)
		}
		out[p] = w.Finish()
	}
	return out
}

// addInputs charges each partition's consumed input rows to the node the
// consuming unit executes on.
func (ex *executor) addInputs(top *trace.Op, in [][]value.Tuple) {
	for p, rows := range in {
		top.AddIn(ex.execDst[p], len(rows))
	}
}

// refNodes counts the plan nodes the reference dispatcher has run, for
// TestReferenceRunsRowOperators.
var refNodes atomic.Int64

// refEval is the reference dispatcher: every node runs on its row form.
func (ex *executor) refEval(n plan.Node) ([][]value.Tuple, error) {
	refNodes.Add(1)
	switch n := n.(type) {
	case *plan.ScanNode:
		out, _, err := ex.evalScan(n, nil, nil)
		return out, err
	case *plan.FilterNode, *plan.RuntimeFilterNode:
		return ex.evalFilters(n)
	case *plan.ProjectNode:
		return ex.evalProject(n)
	case *plan.JoinNode:
		return ex.evalJoin(n)
	case *plan.AggregateNode:
		return ex.evalAggregate(n)
	case *plan.PartialAggNode:
		return ex.evalPartialAgg(n)
	case *plan.FinalAggNode:
		return ex.evalFinalAgg(n)
	case *plan.RepartitionNode:
		return ex.evalRepartition(n)
	case *plan.BroadcastNode:
		return ex.evalBroadcast(n)
	case *plan.DistinctPrefNode:
		return ex.evalDistinctPref(n)
	case *plan.DistinctByValueNode:
		return ex.evalDistinctByValue(n)
	case *plan.GatherNode:
		return ex.evalGather(n)
	case *plan.TopKNode:
		return ex.evalTopK(n)
	default:
		return nil, fmt.Errorf("engine: unsupported node %T", n)
	}
}

// refLook is the reference's twin of a filter stack's choice of read: it
// prices partition p's read through each candidate by scanning the
// partition's rows, not through an index, and returns the candidate whose
// probes and fetched rows readsIndex admits with the least work, -1 for none.
type refLook func(p int, rows []value.Tuple) (cand, probes, fetched int)

// evalScan reads every stored row of each partition. Under a filter stack
// that may read it through an index (look non-nil), it charges each
// partition read through a candidate the probes and the rows the index would
// fetch, names each read, and returns the candidate per partition, -1 where
// it read the partition whole or pruned it.
func (ex *executor) evalScan(n *plan.ScanNode, look refLook, labels []string) ([][]value.Tuple, []int, error) {
	top := ex.tb.Begin(n, trace.KindScan)
	pt, ok := ex.pdb.Tables[n.Table]
	if !ok {
		return nil, nil, fmt.Errorf("engine: table %s not in partitioned database", n.Table)
	}
	sch := ex.rw.Schemas[n]
	v := ex.versionOf(pt, n.Table)
	withIndexes := scanHasIndexes(sch)
	keep := scanParts(n)
	indexed := func(p int) (cand, probes, fetched int) {
		if look == nil || keep != nil && !keep[p] || ex.down[p] {
			return -1, 0, 0
		}
		return look(p, v.Parts[p].Rows())
	}
	out, err := forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		if keep != nil && !keep[p] {
			return nil, 0, nil // pruned: the partition cannot contain matches
		}
		if ex.down[p] {
			// The node holding this base partition is unavailable —
			// permanently failed, or routed around by an open circuit
			// breaker: reconstruct its scan output from surviving
			// duplicate copies.
			if err := ex.recoverScan(top, pt, v, p, len(sch)); err != nil {
				return nil, 0, err
			}
		}
		rows := scanRows(v.Parts[p], withIndexes)
		if cand, probes, fetched := indexed(p); cand >= 0 {
			return rows, probes + fetched, nil
		}
		return rows, len(rows), nil
	})
	if look == nil {
		return out, nil, err
	}
	cands := make([]int, len(out))
	for p := range cands {
		cand, probes, _ := indexed(p)
		cands[p] = cand
		if keep != nil && !keep[p] {
			continue
		}
		read := "whole"
		if cand >= 0 {
			top.AddIndexProbes(ex.execDst[p], probes)
			read = labels[cand]
		}
		top.AddRead(ex.execDst[p], read)
	}
	return out, cands, err
}

// scanRows materializes one partition's scan output, appending the hidden
// dup/hasRef index columns when the scan schema asks for them.
func scanRows(part *table.Partition, withIndexes bool) []value.Tuple {
	rows := part.Rows()
	if withIndexes {
		for i, r := range rows {
			nr := make(value.Tuple, len(r)+2)
			copy(nr, r)
			if part.Dup(i) {
				nr[len(r)] = 1
			}
			if part.HasRef(i) {
				nr[len(r)+1] = 1
			}
			rows[i] = nr
		}
	}
	return rows
}

// evalFilters runs the Filter or RuntimeFilter n over its input, row by
// row, and when n heads a filter stack (keyed.go), the whole stack over one
// scan of its table. The stack's read is the product's choice, priced by
// scanning (refLook) over the candidates the product's stackRead offers. On
// a partition read through a candidate, the lowest filter takes only the
// rows that candidate fetches, found by scanning, and counts the others as
// skipped; every filter evaluates its whole predicate on every row it takes.
// A runtime filter counts every row it does not pass on as filtered, skipped
// ones included. A runtime
// filter's keys are held in a map: on partition p, source partition p's when
// it is local, and otherwise every source partition's. A shipped filter's
// transfer is metered by the product's shipFilters, whose decoded union it
// ignores.
func (ex *executor) evalFilters(n plan.Node) ([][]value.Tuple, error) {
	st := stackOf(n)
	if st == nil {
		st = &filterStack{nodes: []plan.Node{n}}
	}
	tops := make([]*trace.Op, len(st.nodes))
	sets := make([][]map[int64]bool, len(st.nodes))
	for i, x := range st.nodes {
		rf, ok := x.(*plan.RuntimeFilterNode)
		if !ok {
			tops[i] = ex.tb.Begin(x, trace.KindFilter)
			continue
		}
		tops[i] = ex.tb.Begin(rf, filterKind(rf))
		var err error
		if sets[i], err = ex.refSets(tops[i], rf); err != nil {
			return nil, err
		}
	}
	var in [][]value.Tuple
	var cands []int
	var ir *indexRead
	var err error
	if st.scan != nil {
		refNodes.Add(1)
		if ir = ex.stackRead(st, make([][]*batch.Int64Table, len(st.nodes))); ir != nil {
			labels := make([]string, len(ir.cands))
			for c, cand := range ir.cands {
				labels[c] = cand.label
			}
			in, cands, err = ex.evalScan(st.scan, func(p int, rows []value.Tuple) (int, int, int) {
				best, probes, fetched := -1, 0, 0
				for c := range ir.cands {
					k, f, ok := refFetch(ir.cands[c], st, sets, p, rows)
					if ok && ex.readsIndex(p, k, f, len(rows)) && (best < 0 || k+f < probes+fetched) {
						best, probes, fetched = c, k, f
					}
				}
				return best, probes, fetched
			}, labels)
		} else {
			in, _, err = ex.evalScan(st.scan, nil, nil)
		}
	} else {
		in, err = ex.refEval(n.Children()[0])
	}
	for i := len(st.nodes) - 1; i >= 0 && err == nil; i-- {
		var taken []int // the lowest filter's candidate per partition
		if i == len(st.nodes)-1 && ir != nil {
			taken = cands
		}
		in, err = ex.refFilter(st.nodes[i], tops[i], sets[i], in, ir, taken, st, sets)
	}
	return in, err
}

// refSets returns runtime filter n's keys on each partition, as maps.
func (ex *executor) refSets(top *trace.Op, n *plan.RuntimeFilterNode) ([]map[int64]bool, error) {
	keys, err := ex.filterSource(n)
	if err != nil {
		return nil, err
	}
	sets := make([]map[int64]bool, ex.n)
	if n.Local {
		for p := range sets {
			sets[p] = map[int64]bool{}
			for _, k := range keys[p] {
				sets[p][k] = true
			}
		}
		return sets, nil
	}
	if _, err := ex.shipFilters(top, keys); err != nil {
		return nil, err
	}
	union := map[int64]bool{}
	for _, ks := range keys {
		for _, k := range ks {
			union[k] = true
		}
	}
	for p := range sets {
		sets[p] = union
	}
	return sets, nil
}

// refFetch prices candidate c's read of partition p's rows by scanning them:
// its probes and the rows it would fetch; ok is false where the keyed read's
// probes alone cost a whole read.
func refFetch(c readCand, st *filterStack, sets [][]map[int64]bool, p int, rows []value.Tuple) (probes, fetched int, ok bool) {
	probes = 1
	if c.rf != nil {
		probes = len(sets[slices.Index(st.nodes, plan.Node(c.rf))][p])
		if probes >= len(rows) {
			return 0, 0, false
		}
	}
	for _, r := range rows {
		if refFetches(c, st, sets, p, r) {
			fetched++
		}
	}
	return probes, fetched, true
}

// refFetches reports whether candidate c's read of partition p fetches row r.
func refFetches(c readCand, st *filterStack, sets [][]map[int64]bool, p int, r value.Tuple) bool {
	v := r[c.col]
	if c.rf != nil {
		return sets[slices.Index(st.nodes, plan.Node(c.rf))][p][v]
	}
	return v != plan.Null && c.lo <= v && v <= c.hi
}

// refFilter runs filter n of a stack over in: taken, for the lowest filter
// of a stack read through an index, holds the candidate ir read each
// partition through, -1 where it read the partition whole.
func (ex *executor) refFilter(n plan.Node, top *trace.Op, set []map[int64]bool, in [][]value.Tuple, ir *indexRead, taken []int, st *filterStack, sets [][]map[int64]bool) ([][]value.Tuple, error) {
	ex.addInputs(top, in)
	var keep func(p int, r value.Tuple) bool
	switch n := n.(type) {
	case *plan.FilterNode:
		pred, err := n.Pred.Bind(ex.rw.Schemas[n.Child])
		if err != nil {
			return nil, err
		}
		keep = func(_ int, r value.Tuple) bool { return pred(r) }
	case *plan.RuntimeFilterNode:
		col, err := ex.rw.Schemas[n.Child].IndexOf(n.Col)
		if err != nil {
			return nil, err
		}
		keep = func(p int, r value.Tuple) bool { return set[p][r[col]] }
	}
	fetched := make([]int, len(in))
	out, err := forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		var rows []value.Tuple
		fetched[p] = 0
		for _, r := range in[p] {
			if taken != nil && taken[p] >= 0 {
				if !refFetches(ir.cands[taken[p]], st, sets, p, r) {
					continue
				}
				fetched[p]++
			}
			if keep(p, r) {
				rows = append(rows, r)
			}
		}
		return rows, len(rows), nil
	})
	if err != nil {
		return nil, err
	}
	_, runtime := n.(*plan.RuntimeFilterNode)
	for p := range out {
		skipped := 0
		if taken != nil && taken[p] >= 0 {
			skipped = len(in[p]) - fetched[p]
			top.AddSkipped(ex.execDst[p], skipped)
		}
		if runtime {
			top.AddFiltered(ex.execDst[p], len(in[p])-len(out[p]))
		}
	}
	return out, nil
}

func (ex *executor) evalProject(n *plan.ProjectNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindProject)
	in, err := ex.refEval(n.Child)
	if err != nil {
		return nil, err
	}
	ex.addInputs(top, in)
	sch := ex.rw.Schemas[n.Child]
	return forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		fns := make([]func(value.Tuple) int64, len(n.Exprs))
		for i, e := range n.Exprs {
			f, err := e.Bind(sch)
			if err != nil {
				return nil, 0, err
			}
			fns[i] = f
		}
		rows := make([]value.Tuple, 0, len(in[p]))
		for _, r := range in[p] {
			nr := make(value.Tuple, len(fns))
			for i, f := range fns {
				nr[i] = f(r)
			}
			rows = append(rows, nr)
		}
		return rows, len(rows), nil
	})
}

// selectRows is the row form of batch.SelectAll: every row cut to the columns
// at pos, which liveCols resolved from the operator's recorded schema. Nil pos
// means every column and returns rows itself.
func selectRows(rows []value.Tuple, pos []int) []value.Tuple {
	if pos == nil {
		return rows
	}
	out := make([]value.Tuple, len(rows))
	for i, r := range rows {
		nr := make(value.Tuple, len(pos))
		for j, c := range pos {
			nr[j] = r[c]
		}
		out[i] = nr
	}
	return out
}

// dedupRows applies the disjunctive dup=0 filter over the given dup
// columns (Section 2.2's distinct operator); no movement involved. A Null
// dup flag means the row was null-extended by an outer join (it has no
// copy of that table at all) and is kept — such rows exist exactly once.
func dedupRows(rows []value.Tuple, sch plan.Schema, dupCols []string) ([]value.Tuple, error) {
	if len(dupCols) == 0 {
		return rows, nil
	}
	idx, err := sch.Indexes(dupCols)
	if err != nil {
		return nil, err
	}
	out := rows[:0:0]
	for _, r := range rows {
		keep := false
		for _, j := range idx {
			if r[j] == 0 || r[j] == plan.Null {
				keep = true
				break
			}
		}
		if keep {
			out = append(out, r)
		}
	}
	return out, nil
}

// evalDistinctPref drops PREF-duplicate rows (dup != 0) partition-locally.
func (ex *executor) evalDistinctPref(n *plan.DistinctPrefNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindDistinctPref)
	in, err := ex.refEval(n.Child)
	if err != nil {
		return nil, err
	}
	ex.addInputs(top, in)
	sch := ex.rw.Schemas[n.Child]
	out, err := forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		rows, err := dedupRows(in[p], sch, n.DupCols)
		if err != nil {
			return nil, 0, err
		}
		return rows, len(rows), nil
	})
	if err != nil {
		return nil, err
	}
	// Dedup hits are derived after the fan-out so crash-retried attempts
	// cannot double-count them.
	for p := range out {
		top.AddDedup(ex.execDst[p], len(in[p])-len(out[p]))
	}
	return out, nil
}

// evalRepartition hash-partitions rows onto their owner partitions.
func (ex *executor) evalRepartition(n *plan.RepartitionNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindRepartition)
	in, err := ex.refEval(n.Child)
	if err != nil {
		return nil, err
	}
	sch := ex.rw.Schemas[n.Child]
	idx, err := sch.Indexes(n.Cols)
	if err != nil {
		return nil, err
	}
	osch, live, err := ex.liveCols(n, sch)
	if err != nil {
		return nil, err
	}
	op := ex.nextOp()
	start := time.Now()
	out := make([][]value.Tuple, ex.n)
	for src := 0; src < ex.n; src++ {
		if n.OneCopy && src != 0 {
			continue
		}
		top.AddIn(ex.execDst[src], len(in[src]))
		rows, err := dedupRows(in[src], sch, n.DupCols)
		if err != nil {
			return nil, err
		}
		top.AddDedup(ex.execDst[src], len(in[src])-len(rows))
		cross := 0
		for i, r := range selectRows(rows, live) {
			// Hash on the child's columns; ship only the live ones.
			dst := int(value.HashTuple(rows[i], idx) % uint64(ex.n))
			if dst != src {
				cross++
			}
			out[dst] = append(out[dst], r)
		}
		if err := ex.shipBatch(top, op, src, cross, len(osch)); err != nil {
			return nil, err
		}
	}
	if n.OneCopy {
		top.SetReadOne()
	}
	for dst := 0; dst < ex.n; dst++ {
		top.AddWork(ex.execDst[dst], len(out[dst]))
		top.AddOut(ex.execDst[dst], len(out[dst]))
	}
	top.AddWall(ex.execDst[0], time.Since(start))
	return out, nil
}

// evalBroadcast replicates the full input to every partition.
func (ex *executor) evalBroadcast(n *plan.BroadcastNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindBroadcast)
	in, err := ex.refEval(n.Child)
	if err != nil {
		return nil, err
	}
	sch := ex.rw.Schemas[n.Child]
	osch, live, err := ex.liveCols(n, sch)
	if err != nil {
		return nil, err
	}
	op := ex.nextOp()
	start := time.Now()
	var all []value.Tuple
	for src := 0; src < ex.n; src++ {
		if n.OneCopy && src != 0 {
			continue
		}
		top.AddIn(ex.execDst[src], len(in[src]))
		rows, err := dedupRows(in[src], sch, n.DupCols)
		if err != nil {
			return nil, err
		}
		top.AddDedup(ex.execDst[src], len(in[src])-len(rows))
		// Each row is shipped to every other node.
		if err := ex.shipBatch(top, op, src, len(rows)*(ex.n-1), len(osch)); err != nil {
			return nil, err
		}
		all = append(all, selectRows(rows, live)...)
	}
	if n.OneCopy {
		top.SetReadOne()
	}
	// Every partition shares one row slice; clamp its capacity so a
	// downstream append through any one partition reallocates instead of
	// scribbling over its siblings' (and the trailing hidden) elements.
	all = all[:len(all):len(all)]
	out := make([][]value.Tuple, ex.n)
	for p := 0; p < ex.n; p++ {
		out[p] = all
		top.AddWork(ex.execDst[p], len(all))
		top.AddOut(ex.execDst[p], len(all))
	}
	top.AddWall(ex.execDst[0], time.Since(start))
	return out, nil
}

// evalGather concentrates all partitions' rows on the coordinator.
func (ex *executor) evalGather(n *plan.GatherNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindGather)
	in, err := ex.refEval(n.Child)
	if err != nil {
		return nil, err
	}
	osch, live, err := ex.liveCols(n, ex.rw.Schemas[n.Child])
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out := make([][]value.Tuple, ex.n)
	if n.OneCopy {
		top.SetReadOne()
		top.AddIn(ex.execDst[0], len(in[0]))
		// The child's partition 0 slice passes through; clamp so an append
		// downstream cannot overwrite the child's backing array in place.
		out[0] = selectRows(in[0][:len(in[0]):len(in[0])], live)
		top.AddWork(ex.execDst[0], len(in[0]))
		top.AddOut(ex.execDst[0], len(in[0]))
		top.AddWall(ex.execDst[0], time.Since(start))
		return out, nil
	}
	op := ex.nextOp()
	var rows []value.Tuple
	for p := 0; p < ex.n; p++ {
		top.AddIn(ex.execDst[p], len(in[p]))
		if p != 0 {
			if err := ex.shipBatch(top, op, p, len(in[p]), len(osch)); err != nil {
				return nil, err
			}
		}
		rows = append(rows, selectRows(in[p], live)...)
	}
	out[0] = rows
	top.AddWork(ex.execDst[0], len(rows))
	top.AddOut(ex.execDst[0], len(rows))
	top.AddWall(ex.execDst[0], time.Since(start))
	return out, nil
}

// evalJoin executes a hash join per partition: build on the right input,
// probe with the left. Inner, left-outer, semi, and anti flavors share the
// probe loop; a residual predicate filters candidate pairs. A join that fires
// a runtime filter runs its source input first, as the product does.
func (ex *executor) evalJoin(n *plan.JoinNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindJoin)
	first, second := n.Left, n.Right
	if n.Source == plan.RightSide {
		first, second = second, first
	}
	a, err := ex.refEval(first)
	if err != nil {
		return nil, err
	}
	if n.Source != plan.NoSide {
		keys := func(p, col int) []int64 {
			out := make([]int64, len(a[p]))
			for i, r := range a[p] {
				out[i] = r[col]
			}
			return out
		}
		if err := ex.buildFilters(n, keys); err != nil {
			return nil, err
		}
	}
	b, err := ex.refEval(second)
	if err != nil {
		return nil, err
	}
	left, right := a, b
	if n.Source == plan.RightSide {
		left, right = b, a
	}
	ex.addInputs(top, left)
	ex.addInputs(top, right)
	ls := ex.rw.Schemas[n.Left]
	rs := ex.rw.Schemas[n.Right]
	both := ls.Concat(rs)

	lIdx, err := ls.Indexes(n.LeftCols)
	if err != nil {
		return nil, err
	}
	rIdx, err := rs.Indexes(n.RightCols)
	if err != nil {
		return nil, err
	}
	// Pairs form full width; the join emits the columns read above it.
	natural := both
	if n.Type == plan.Semi || n.Type == plan.Anti {
		natural = ls
	}
	_, live, err := ex.liveCols(n, natural)
	if err != nil {
		return nil, err
	}

	return forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		var residual func(value.Tuple) bool
		if n.Residual != nil {
			f, err := n.Residual.Bind(both)
			if err != nil {
				return nil, 0, err
			}
			residual = f
		}

		// Build side. A row with a NULL key matches nothing.
		build := make(map[value.Key][]value.Tuple, len(right[p]))
		if len(n.RightCols) > 0 {
		rows:
			for _, r := range right[p] {
				for _, c := range rIdx {
					if r[c] == plan.Null {
						continue rows
					}
				}
				k := value.MakeKey(r, rIdx)
				build[k] = append(build[k], r)
			}
		}

		pair := make(value.Tuple, len(ls)+len(rs))
		var rows []value.Tuple
		emit := func(l, r value.Tuple) {
			nr := make(value.Tuple, len(ls)+len(rs))
			copy(nr, l)
			copy(nr[len(ls):], r)
			rows = append(rows, nr)
		}
		matches := func(l value.Tuple) []value.Tuple {
			var cand []value.Tuple
			if len(n.RightCols) > 0 {
				cand = build[value.MakeKey(l, lIdx)]
			} else {
				cand = right[p] // cross/theta join
			}
			if residual == nil {
				return cand
			}
			var ok []value.Tuple
			for _, r := range cand {
				copy(pair, l)
				copy(pair[len(ls):], r)
				if residual(pair) {
					ok = append(ok, r)
				}
			}
			return ok
		}

		for _, l := range left[p] {
			ms := matches(l)
			switch n.Type {
			case plan.Inner:
				for _, r := range ms {
					emit(l, r)
				}
			case plan.LeftOuter:
				if len(ms) == 0 {
					nullRow := make(value.Tuple, len(rs))
					for i := range nullRow {
						nullRow[i] = plan.Null
					}
					emit(l, nullRow)
				} else {
					for _, r := range ms {
						emit(l, r)
					}
				}
			case plan.Semi:
				if len(ms) > 0 {
					rows = append(rows, l)
				}
			case plan.Anti:
				if len(ms) == 0 {
					rows = append(rows, l)
				}
			}
		}
		// Join work: building the hash table, probing it, and emitting
		// output rows. Probes into an over-cache build side pay the miss
		// penalty (see ExecOptions.CacheRows).
		work := len(right[p]) + len(left[p]) + len(rows)
		if ex.opt.CacheRows > 0 && len(right[p]) > ex.opt.CacheRows {
			work += int(float64(len(left[p])) * (missFactor - 1))
		}
		return selectRows(rows, live), work, nil
	})
}

// refAggInfo is the row twin's binding of an aggregation: Bind closures
// where the product compiles its arguments.
type refAggInfo struct {
	groupIdx []int
	argFns   []func(value.Tuple) int64
	isFloat  []bool
	aggs     []plan.AggExpr
	// stateCol is set when the input rows are partial states to merge:
	// aggregate i's state starts at column stateCol[i].
	stateCol []int
}

func refBindAggs(groupBy []string, aggs []plan.AggExpr, sch plan.Schema) (*refAggInfo, error) {
	info := &refAggInfo{aggs: aggs}
	for _, g := range groupBy {
		i, err := sch.IndexOf(g)
		if err != nil {
			return nil, err
		}
		info.groupIdx = append(info.groupIdx, i)
	}
	for _, a := range aggs {
		if a.Arg == nil {
			info.argFns = append(info.argFns, nil)
			info.isFloat = append(info.isFloat, false)
			continue
		}
		f, err := a.Arg.Bind(sch)
		if err != nil {
			return nil, err
		}
		info.argFns = append(info.argFns, f)
		info.isFloat = append(info.isFloat, a.Arg.Kind(sch) == value.Float)
	}
	return info, nil
}

// refBindMerge binds the merge of partial-state rows against sch, the
// schema that carries them, by name; an AVG's count state follows its sum.
// A group-by or state column sch lacks is an error.
func refBindMerge(groupBy []string, aggs []plan.AggExpr, sch plan.Schema) (*refAggInfo, error) {
	groupIdx, err := sch.Indexes(groupBy)
	if err != nil {
		return nil, err
	}
	info := &refAggInfo{aggs: aggs, groupIdx: groupIdx}
	for _, a := range aggs {
		col, err := sch.IndexOf(plan.StateCol(a))
		if err != nil {
			return nil, err
		}
		if a.Fn == plan.AvgFn && (col+1 >= len(sch) || sch[col+1].Name != a.As+"$cnt") {
			return nil, fmt.Errorf("ref: AVG %s's count state does not follow its sum in %v", a.As, sch.Names())
		}
		info.stateCol = append(info.stateCol, col)
		info.isFloat = append(info.isFloat, sch[col].Kind == value.Float)
	}
	return info, nil
}

// accumulate groups the rows of one partition, in row order.
func (info *refAggInfo) accumulate(rows []value.Tuple) map[value.Key]*groupAcc {
	groups := make(map[value.Key]*groupAcc)
	for _, r := range rows {
		k := value.MakeKey(r, info.groupIdx)
		g, ok := groups[k]
		if !ok {
			key := make(value.Tuple, len(info.groupIdx))
			for i, j := range info.groupIdx {
				key[i] = r[j]
			}
			g = &groupAcc{key: key, states: make([]aggState, len(info.aggs))}
			groups[k] = g
		}
		for i, a := range info.aggs {
			s := &g.states[i]
			switch {
			case info.stateCol != nil:
				c, cnt := info.stateCol[i], int64(0)
				if a.Fn == plan.AvgFn {
					cnt = r[c+1]
				}
				s.merge(a.Fn, r[c], cnt, info.isFloat[i])
			case a.Fn == plan.CountFn && a.Arg == nil:
				s.cnt++ // COUNT(*)
			case a.Fn == plan.CountDistinctFn:
				if v := info.argFns[i](r); v != plan.Null {
					if s.distinct == nil {
						s.distinct = map[int64]struct{}{}
					}
					s.distinct[v] = struct{}{}
				}
			default:
				s.add(info.argFns[i](r), info.isFloat[i])
			}
		}
	}
	return groups
}

// emit renders the accumulated groups as final rows or, when partial, as
// mergeable state rows (AVG carries sum and count; the other functions'
// values combine as they are). identity adds the one row a global
// aggregation yields over empty input (COUNT()=0).
func (info *refAggInfo) emit(groups map[value.Key]*groupAcc, partial, identity bool) []value.Tuple {
	if identity && len(info.groupIdx) == 0 && len(groups) == 0 {
		groups[value.Key("")] = &groupAcc{states: make([]aggState, len(info.aggs))}
	}
	width := len(info.groupIdx) + len(info.aggs)
	if partial {
		for _, a := range info.aggs {
			if a.Fn == plan.AvgFn {
				width++
			}
		}
	}
	rows := make([]value.Tuple, 0, len(groups))
	for _, g := range groups {
		row := make(value.Tuple, 0, width)
		row = append(row, g.key...)
		for i, a := range info.aggs {
			s := &g.states[i]
			if partial && a.Fn == plan.AvgFn {
				sum := s.isum
				if info.isFloat[i] {
					sum = value.FromFloat(s.fsum)
				}
				row = append(row, sum, s.cnt)
				continue
			}
			row = append(row, finalValue(a, s, info.isFloat[i]))
		}
		rows = append(rows, row)
	}
	return rows
}

func (ex *executor) evalAggregate(n *plan.AggregateNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindAggregate)
	in, err := ex.refEval(n.Child)
	if err != nil {
		return nil, err
	}
	ex.addInputs(top, in)
	sch := ex.rw.Schemas[n.Child]
	// Over a Gathered input only partition 0 is ever consumed downstream,
	// so the empty-input identity row of a global aggregation must not be
	// fabricated on the other partitions (phantom rows that inflate work
	// and break trace row conservation).
	gathered := ex.gathered(n.Child)
	return forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		info, err := refBindAggs(n.GroupBy, n.Aggs, sch)
		if err != nil {
			return nil, 0, err
		}
		rows := info.emit(info.accumulate(in[p]), false, p == 0 || !gathered)
		return rows, len(rows), nil
	})
}

// evalPartialAgg emits per-partition partial states. A global aggregation
// over an empty partition contributes an identity state, so the final
// merge still sees COUNT=0.
func (ex *executor) evalPartialAgg(n *plan.PartialAggNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindPartialAgg)
	in, err := ex.refEval(n.Child)
	if err != nil {
		return nil, err
	}
	ex.addInputs(top, in)
	sch := ex.rw.Schemas[n.Child]
	return forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		info, err := refBindAggs(n.GroupBy, n.Aggs, sch)
		if err != nil {
			return nil, 0, err
		}
		rows := info.emit(info.accumulate(in[p]), true, true)
		return rows, len(rows), nil
	})
}

// evalFinalAgg merges partial states. Below a Repartition on the group-by
// columns every partition merges the states it received, as one fan-out.
// Below a Gather (the global pair) only the coordinator partition has rows:
// the merge is a single work unit on the coordinator node, under the same
// fault model as the fan-out operators.
func (ex *executor) evalFinalAgg(n *plan.FinalAggNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindFinalAgg)
	in, err := ex.refEval(n.Child)
	if err != nil {
		return nil, err
	}
	// States merge in row order, which every exchange keeps ascending by
	// source partition, so Float-kind results do not depend on scheduling.
	info, err := refBindMerge(n.GroupBy, n.Aggs, ex.rw.Schemas[n.Child])
	if err != nil {
		return nil, err
	}
	merge := func(p int) ([]value.Tuple, int, error) {
		rows := info.emit(info.accumulate(in[p]), false, true)
		return rows, len(rows), nil
	}
	if !ex.gathered(n.Child) {
		ex.addInputs(top, in)
		return forEachPart(ex, top, merge)
	}
	top.AddIn(ex.execDst[0], len(in[0]))
	op := ex.nextOp()
	en := ex.execDst[0]
	start := time.Now()
	rows, work, err := runUnit(ex, ex.ctx, top, op, 0, en, merge)
	top.AddWall(en, time.Since(start))
	if err != nil {
		return nil, err
	}
	out := make([][]value.Tuple, ex.n)
	out[0] = rows
	top.AddOut(en, len(rows))
	top.AddWork(en, work)
	if en != 0 {
		top.AddFailover(en)
	}
	return out, nil
}

// evalDistinctByValue deduplicates by value, which requires a hash shuffle
// so equal rows meet on one partition.
func (ex *executor) evalDistinctByValue(n *plan.DistinctByValueNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindDistinctByValue)
	in, err := ex.refEval(n.Child)
	if err != nil {
		return nil, err
	}
	ex.addInputs(top, in)
	sch := ex.rw.Schemas[n.Child]
	idx, err := sch.Indexes(n.Cols)
	if err != nil {
		return nil, err
	}
	// Shuffle by content so identical rows meet on one node, then keep
	// one per value.
	op := ex.nextOp()
	shuffled := make([][]value.Tuple, ex.n)
	for src, rows := range in {
		cross := 0
		for _, r := range rows {
			dst := int(value.HashTuple(r, idx) % uint64(ex.n))
			if dst != src {
				cross++
			}
			shuffled[dst] = append(shuffled[dst], r)
		}
		if err := ex.shipBatch(top, op, src, cross, len(sch)); err != nil {
			return nil, err
		}
	}
	out, err := forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		seen := make(map[value.Key]bool, len(shuffled[p]))
		var rows []value.Tuple
		for _, r := range shuffled[p] {
			k := value.MakeKey(r, idx)
			if !seen[k] {
				seen[k] = true
				rows = append(rows, r)
			}
		}
		return rows, len(rows), nil
	})
	if err != nil {
		return nil, err
	}
	for p := range out {
		top.AddDedup(ex.execDst[p], len(shuffled[p])-len(out[p]))
	}
	return out, nil
}

// evalTopK orders each partition's rows by the order terms (kind-aware:
// floats decode before comparing) with the full row as tie-breaker, then
// truncates to the limit. The partial pass runs on every partition; the
// final pass sees rows only at the coordinator after the gather.
func (ex *executor) evalTopK(n *plan.TopKNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindTopK)
	in, err := ex.refEval(n.Child)
	if err != nil {
		return nil, err
	}
	ex.addInputs(top, in)
	sch := ex.rw.Schemas[n.Child]

	terms, err := bindOrder(n.Order, sch)
	if err != nil {
		return nil, err
	}
	tie := tieOrder(sch)
	less := func(a, b value.Tuple) bool {
		for _, t := range terms {
			if cmp := t.compare(a[t.idx], b[t.idx]); cmp != 0 {
				return cmp < 0
			}
		}
		// Deterministic total order: full-row tie-break.
		for _, i := range tie {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}

	return forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		rows := append([]value.Tuple(nil), in[p]...)
		sort.Slice(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
		if n.Limit > 0 && len(rows) > n.Limit {
			rows = rows[:n.Limit]
		}
		return rows, len(rows), nil
	})
}
