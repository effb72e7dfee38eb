package engine

import (
	"context"
	"fmt"
	"time"

	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/trace"
	"pref/internal/value"
)

// The row reference.
//
// These are the row-at-a-time forms of the eight operators the product
// implements only over columnar batches (scan, filter, project, join,
// repartition, broadcast, gather, distinct-pref), plus the dispatcher that
// routes a whole plan through them. They are the differential reference:
// executeRef drives them through the same executeCtx as the product —
// admission, snapshot pin, fault injector, nextOp sequence, trace builder,
// Result assembly — so the only thing that differs between the two runs of
// a query is which code processes the rows. The row-native operators
// (aggregation, top-k, distinct-by-value) are shared: they reach their
// input through ex.dispatch, which is refEval here.
//
// TestVecRow* (vec_test.go, oracle_test.go) hold the product to this
// reference in rows, Stats, trace totals and failure agreement;
// TestReferenceRunsRowOperators pins that the two entries really run
// different code.

// executeRef is ExecuteOpts over the row reference.
func executeRef(rw *plan.Rewritten, pdb *table.PartitionedDatabase, opt ExecOptions) (*Result, error) {
	return executeCtx(context.Background(), rw, pdb, opt, (*executor).refEval)
}

// refEval is the reference dispatcher: every node runs on its row form.
func (ex *executor) refEval(n plan.Node) ([][]value.Tuple, error) {
	switch n := n.(type) {
	case *plan.ScanNode:
		return ex.evalScan(n)
	case *plan.FilterNode:
		return ex.evalFilter(n)
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

func (ex *executor) evalScan(n *plan.ScanNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindScan)
	pt, ok := ex.pdb.Tables[n.Table]
	if !ok {
		return nil, fmt.Errorf("engine: table %s not in partitioned database", n.Table)
	}
	sch := ex.rw.Schemas[n]
	v := ex.versionOf(pt, n.Table)
	withIndexes := scanHasIndexes(sch)
	var keep map[int]bool
	if n.Prune != nil {
		keep = make(map[int]bool, len(n.Prune))
		for _, p := range n.Prune {
			keep[p] = true
		}
	}
	return forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		if keep != nil && !keep[p] {
			return nil, 0, nil // pruned: the partition cannot contain matches
		}
		if ex.down[p] {
			// The node holding this base partition is unavailable —
			// permanently failed, or routed around by an open circuit
			// breaker: reconstruct its scan output from surviving
			// duplicate copies.
			rows, err := ex.recoverScan(top, pt, v, p, sch)
			if err != nil {
				return nil, 0, err
			}
			return rows, len(rows), nil
		}
		rows := scanRows(v.Parts[p], withIndexes)
		return rows, len(rows), nil
	})
}

func (ex *executor) evalFilter(n *plan.FilterNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindFilter)
	in, err := ex.refEval(n.Child)
	if err != nil {
		return nil, err
	}
	ex.addInputs(top, in)
	sch := ex.rw.Schemas[n.Child]
	return forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		pred, err := n.Pred.Bind(sch)
		if err != nil {
			return nil, 0, err
		}
		var rows []value.Tuple
		for _, r := range in[p] {
			if pred(r) {
				rows = append(rows, r)
			}
		}
		return rows, len(rows), nil
	})
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
// probe loop; a residual predicate filters candidate pairs.
func (ex *executor) evalJoin(n *plan.JoinNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindJoin)
	left, err := ex.refEval(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := ex.refEval(n.Right)
	if err != nil {
		return nil, err
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

		// Build side.
		build := make(map[value.Key][]value.Tuple, len(right[p]))
		if len(n.RightCols) > 0 {
			for _, r := range right[p] {
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
			work += int(float64(len(left[p])) * (ex.opt.MissFactor - 1))
		}
		return selectRows(rows, live), work, nil
	})
}
