package engine

import (
	"fmt"
	"time"

	"pref/internal/batch"
	"pref/internal/plan"
	"pref/internal/trace"
	"pref/internal/value"
)

// The operators.
//
// Rows travel between operators in one form, per-partition lists of ~1k-row
// columnar batches (vparts), from the scan to the Result assembly in
// executeCtx, which is the only place a value.Tuple row is built. Scans hand
// out zero-copy views of the partitions' stored columns; filters (runtime
// join filters too) and distinct narrow with selection vectors; project, join, the exchanges,
// aggregation (agg.go) and top-k (topk.go) read their input in place and
// write fresh batches through a batch.Writer. Each operator has a
// row-at-a-time twin in ref_test.go, the differential reference, and matches
// it exactly where reproducibility depends on it:
//
//   - Operator ids: every operator consumes nextOp() in the same order as
//     its row twin, so injected fault schedules (keyed on operator id, node,
//     attempt) are identical under the reference.
//   - Metering: every AddIn/AddOut/AddWork/AddShip/AddDedup charge carries
//     the same row counts — and Stats is the sum of those charges — so
//     traces verify against the same conservation laws.
//   - Row order: batches preserve storage order and exchanges append in
//     (source, row) order, so order-sensitive float accumulation downstream
//     sees identical input sequences and results are byte-equal. (Grouped
//     output is the exception: the product emits groups in first-seen order,
//     the reference in map order; comparisons sort.)
//
// Batch ownership follows the batch package's rule: operators never write
// through a batch they received — filters narrow with fresh selection
// vectors, everything else writes into fresh batches — so scans can safely
// share storage-backed vectors across concurrent queries and broadcast can
// share one batch list across all partitions. Operators never release a
// batch either: the plan is a tree, so each node's output has one consumer,
// and evalVec alone decides when a pooled batch dies. An operator takes its
// inputs through its frame and reports whether its output is fresh or views
// them; evalVec releases the inputs of a fresh output after the partition
// barrier, keeps those of a view output for as long as it lives, and on an
// error releases everything. A unit's work reads its input in place (a
// crashed or hedged attempt re-reads it), and forEachPart joins every unit
// before returning, so nothing still reads a batch when evalVec releases
// it.
//
// Width follows the plan: the operators that copy rows (join, the three
// exchanges) write exactly the schema the rewrite recorded for them — the
// columns read above (plan/prune.go) — selecting them from their input with
// batch.Select, and an exchange is charged that width. Scan, the filters
// and distinct-pref hand on views, so their extra columns cost a slice header;
// aggregation reads only the columns its keys and arguments name.

// vparts is an operator's output: per partition, an ordered list of batches.
type vparts = [][]*batch.Batch

// outKind is what an operator's output is made of, which decides when its
// inputs die.
type outKind uint8

const (
	// fresh: every column was written by the operator, so its inputs are
	// dead once it returns.
	fresh outKind = iota
	// views: the output narrows or passes on its inputs' batches, which live
	// as long as it does.
	views
)

// pooled lists batch lists whose pooled batches die together.
type pooled []vparts

// release recycles every pooled batch of every list. Release is idempotent
// per header, so lists that share batches (broadcast, a pass-through
// gather) are still swept once.
func (o pooled) release() {
	for _, parts := range o {
		for _, bs := range parts {
			batch.ReleaseAll(bs)
		}
	}
}

// frame is one operator's evaluation. The batch lists its inputs keep alive
// sit on the query's release stack (executor.owed) above base: each child
// the operator takes through input pushes its own, and evalVec settles them
// all when the operator returns.
type frame struct {
	ex   *executor
	base int
}

// input evaluates child and returns its output, whose batches stay owed in
// the frame's region until evalVec settles it.
func (f *frame) input(child plan.Node) (vparts, error) { return f.ex.evalVec(child) }

// scratch hands the frame a pooled intermediate the operator built, to die
// with its inputs.
func (f *frame) scratch(parts vparts) { f.ex.owed = append(f.ex.owed, parts) }

// evalVec evaluates n to per-partition batch lists, the one form in which
// rows travel between operators: every plan node has one implementation, and
// each takes its input here, through its frame. It is the only place a
// pooled batch dies. A fresh output replaces everything its frame owed —
// the inputs, scratch, the unit outputs the fault model discarded — which
// is released; a view output leaves it owed, to die with the first consumer
// that copies, or with the query. On any error everything the frame owed is
// released, and so is a partial output the operator returned with it.
func (ex *executor) evalVec(n plan.Node) (vparts, error) {
	f := frame{ex: ex, base: len(ex.owed)}
	out, kind, err := ex.evalOp(&f, n)
	if err == nil && kind == views {
		// Discarded views hold no pooled batch but their inputs'.
		return out, nil
	}
	if err == nil && ex.verify && batch.SharesPooled(out, ex.owed[f.base:]...) {
		err = fmt.Errorf("engine: %s reported a fresh output that views its input", n)
	}
	if err != nil {
		ex.owed = append(ex.owed, out)
	}
	ex.owed[f.base:].release()
	ex.owed = ex.owed[:f.base]
	if err != nil {
		return nil, err
	}
	ex.owed = append(ex.owed, out)
	return out, nil
}

// evalOp runs n's operator in frame f.
func (ex *executor) evalOp(f *frame, n plan.Node) (vparts, outKind, error) {
	switch n := n.(type) {
	case *plan.ScanNode:
		return ex.evalScanVec(n)
	case *plan.FilterNode:
		return ex.evalFilterVec(f, n)
	case *plan.RuntimeFilterNode:
		return ex.evalRuntimeFilterVec(f, n)
	case *plan.ProjectNode:
		return ex.evalProjectVec(f, n)
	case *plan.JoinNode:
		return ex.evalJoinVec(f, n)
	case *plan.AggregateNode:
		return ex.evalAggVec(f, n, trace.KindAggregate, n.Child, n.GroupBy, n.Aggs, false)
	case *plan.PartialAggNode:
		return ex.evalAggVec(f, n, trace.KindPartialAgg, n.Child, n.GroupBy, n.Aggs, true)
	case *plan.FinalAggNode:
		return ex.evalFinalAggVec(f, n)
	case *plan.RepartitionNode:
		return ex.evalRepartitionVec(f, n)
	case *plan.BroadcastNode:
		return ex.evalBroadcastVec(f, n)
	case *plan.GatherNode:
		return ex.evalGatherVec(f, n)
	case *plan.DistinctPrefNode:
		return ex.evalDistinctPrefVec(f, n)
	case *plan.DistinctByValueNode:
		return ex.evalDistinctByValueVec(f, n)
	case *plan.TopKNode:
		return ex.evalTopKVec(f, n)
	default:
		return nil, fresh, fmt.Errorf("engine: unsupported node %T", n)
	}
}

// addInputsVec charges each partition's consumed input rows to the node
// the consuming unit executes on.
func (ex *executor) addInputsVec(top *trace.Op, in vparts) {
	for p, bs := range in {
		top.AddIn(ex.execDst[p], batch.Rows(bs))
	}
}

// liveCols resolves what a copying operator writes: the schema the rewrite
// recorded for n — the columns read above it — and their positions in
// natural, the schema n would produce unpruned. The positions are nil when n
// recorded all of natural.
func (ex *executor) liveCols(n plan.Node, natural plan.Schema) (plan.Schema, []int, error) {
	out := ex.rw.Schemas[n]
	pos, err := out.PositionsIn(natural)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: %s: %w", n, err)
	}
	if len(pos) == len(natural) {
		pos = nil
	}
	return out, pos, nil
}

// evalScanVec hands out chunked zero-copy views over the pinned partition's
// stored columns — a lost partition's too, once recoverScan has admitted and
// metered its reconstruction.
func (ex *executor) evalScanVec(n *plan.ScanNode) (vparts, outKind, error) {
	top := ex.tb.Begin(n, trace.KindScan)
	pt, ok := ex.pdb.Tables[n.Table]
	if !ok {
		return nil, views, fmt.Errorf("engine: table %s not in partitioned database", n.Table)
	}
	sch := ex.rw.Schemas[n]
	v := ex.versionOf(pt, n.Table)
	width := pt.Meta.NumCols()
	withIndexes := scanHasIndexes(sch)
	var keep map[int]bool
	if n.Prune != nil {
		keep = make(map[int]bool, len(n.Prune))
		for _, p := range n.Prune {
			keep[p] = true
		}
	}
	out, err := forEachPart(ex, top, func(p int) ([]*batch.Batch, int, error) {
		if keep != nil && !keep[p] {
			return nil, 0, nil // pruned: the partition cannot contain matches
		}
		if ex.down[p] {
			if err := ex.recoverScan(top, pt, v, p, len(sch)); err != nil {
				return nil, 0, err
			}
		}
		proj := v.Parts[p].Columns(width)
		cols := proj.Cols
		if !withIndexes {
			cols = cols[:width]
		}
		return batch.Chunks(cols), proj.NRows, nil
	})
	return out, views, err
}

// evalFilterVec narrows each input batch with a fresh selection vector: its
// output views the input.
func (ex *executor) evalFilterVec(f *frame, n *plan.FilterNode) (vparts, outKind, error) {
	top := ex.tb.Begin(n, trace.KindFilter)
	in, err := f.input(n.Child)
	if err != nil {
		return nil, views, err
	}
	ex.addInputsVec(top, in)
	vp, err := plan.CompilePred(n.Pred, ex.rw.Schemas[n.Child])
	if err != nil {
		return nil, views, err
	}
	out, err := forEachPart(ex, top, func(p int) ([]*batch.Batch, int, error) {
		var out []*batch.Batch
		kept := 0
		for _, b := range in[p] {
			fb := batch.Filter(b, vp)
			if fb.Len() > 0 {
				out = append(out, fb)
				kept += fb.Len()
			}
		}
		return out, kept, nil
	})
	return out, views, err
}

// evalRuntimeFilterVec receives the Bloom filters n.From built of its source
// input's keys and narrows each input batch to the rows whose key one of
// them may hold — partition p's own filter alone when n is local. Like a
// filter, its output views the input.
func (ex *executor) evalRuntimeFilterVec(f *frame, n *plan.RuntimeFilterNode) (vparts, outKind, error) {
	top := ex.tb.Begin(n, filterKind(n))
	fs, err := ex.receiveFilters(top, n)
	if err != nil {
		return nil, views, err
	}
	in, err := f.input(n.Child)
	if err != nil {
		return nil, views, err
	}
	ex.addInputsVec(top, in)
	col, err := ex.rw.Schemas[n.Child].IndexOf(n.Col)
	if err != nil {
		return nil, views, err
	}
	out, err := forEachPart(ex, top, func(p int) ([]*batch.Batch, int, error) {
		var out []*batch.Batch
		kept := 0
		probe := probed(n, fs, p)
		for _, b := range in[p] {
			sel := probe.Select(make([]int32, 0, b.Len()), b, col)
			if len(sel) > 0 {
				out = append(out, b.WithSel(sel))
				kept += len(sel)
			}
		}
		return out, kept, nil
	})
	if err != nil {
		return out, views, err
	}
	// Derived after the fan-out, like dedup hits, so crash-retried attempts
	// cannot double-count.
	for p := range out {
		top.AddFiltered(ex.execDst[p], batch.Rows(in[p])-batch.Rows(out[p]))
	}
	return out, views, nil
}

// buildFilters builds join n's runtime filters, one per partition: bloom(p,
// col) is the filter of partition p's source rows over their key column col.
// The filters are per-query state: the plan, which a serving plan cache
// shares between queries, never holds them.
func (ex *executor) buildFilters(n *plan.JoinNode, bloom func(p, col int) *batch.Bloom) error {
	if len(n.LeftCols) != 1 {
		return fmt.Errorf("engine: %s: a runtime filter needs one key column", n)
	}
	in, key := n.SourceInput()
	col, err := ex.rw.Schemas[in].IndexOf(key)
	if err != nil {
		return err
	}
	fs := make(batch.Blooms, ex.n)
	for p := range fs {
		fs[p] = bloom(p, col)
	}
	if ex.filters == nil {
		ex.filters = map[*plan.JoinNode]batch.Blooms{}
	}
	ex.filters[n] = fs
	return nil
}

// receiveFilters meters the transfer into a runtime filter: every source
// partition's filter travels to the n−1 other nodes, bytes and no rows,
// through the exchanges' fault path, so a failed shipment retries. A local
// filter stays where it was built: nothing travels.
func (ex *executor) receiveFilters(top *trace.Op, n *plan.RuntimeFilterNode) (batch.Blooms, error) {
	fs, ok := ex.filters[n.From]
	if !ok {
		return nil, fmt.Errorf("engine: %s: its join built no filter", n)
	}
	if n.Local {
		return fs, nil
	}
	op := ex.nextOp()
	for src, f := range fs {
		if err := ex.ship(top, op, src, 0, int64(f.Bytes())*int64(ex.n-1)); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// filterKind is the trace kind of a runtime filter: a local one ships
// nothing and is no transfer.
func filterKind(n *plan.RuntimeFilterNode) trace.Kind {
	if n.Local {
		return trace.KindLocalFilter
	}
	return trace.KindRuntimeFilter
}

// probed returns the filters partition p's rows are probed against: all of
// fs, or fs[p] alone when n is local.
func probed(n *plan.RuntimeFilterNode, fs batch.Blooms, p int) batch.Blooms {
	if n.Local {
		return fs[p : p+1]
	}
	return fs
}

// evalProjectVec evaluates each projection expression column-wise into
// fresh batches.
func (ex *executor) evalProjectVec(f *frame, n *plan.ProjectNode) (vparts, outKind, error) {
	top := ex.tb.Begin(n, trace.KindProject)
	in, err := f.input(n.Child)
	if err != nil {
		return nil, fresh, err
	}
	ex.addInputsVec(top, in)
	sch := ex.rw.Schemas[n.Child]
	exprs := make([]*plan.VExpr, len(n.Exprs))
	for i, e := range n.Exprs {
		ve, err := plan.CompileExpr(e, sch)
		if err != nil {
			return nil, fresh, err
		}
		exprs[i] = ve
	}
	out, err := forEachPart(ex, top, func(p int) ([]*batch.Batch, int, error) {
		out := make([]*batch.Batch, 0, len(in[p]))
		rows := 0
		for _, b := range in[p] {
			pb := batch.Project(b, exprs)
			out = append(out, pb)
			rows += pb.Len()
		}
		return out, rows, nil
	})
	return out, fresh, err
}

// evalJoinVec hash-joins the build (right) side against the probe (left)
// side per partition, emitting fresh writer batches. A join that fires a
// runtime filter evaluates its source input first and builds the filters
// before the other input runs.
func (ex *executor) evalJoinVec(f *frame, n *plan.JoinNode) (vparts, outKind, error) {
	top := ex.tb.Begin(n, trace.KindJoin)
	first, second := n.Left, n.Right
	if n.Source == plan.RightSide {
		first, second = second, first
	}
	a, err := f.input(first)
	if err != nil {
		return nil, fresh, err
	}
	if n.Source != plan.NoSide {
		bloom := func(p, col int) *batch.Bloom { return batch.BloomOf(a[p], col) }
		if err := ex.buildFilters(n, bloom); err != nil {
			return nil, fresh, err
		}
	}
	b, err := f.input(second)
	if err != nil {
		return nil, fresh, err
	}
	left, right := a, b
	if n.Source == plan.RightSide {
		left, right = b, a
	}
	ex.addInputsVec(top, left)
	ex.addInputsVec(top, right)
	ls := ex.rw.Schemas[n.Left]
	rs := ex.rw.Schemas[n.Right]

	lIdx, err := ls.Indexes(n.LeftCols)
	if err != nil {
		return nil, fresh, err
	}
	rIdx, err := rs.Indexes(n.RightCols)
	if err != nil {
		return nil, fresh, err
	}
	// The join writes only the columns read above it, and reads of its build
	// side only those plus its own keys and the residual's columns.
	semi := n.Type == plan.Semi || n.Type == plan.Anti
	natural := ls
	if !semi {
		natural = ls.Concat(rs)
	}
	osch, emit, err := ex.liveCols(n, natural)
	if err != nil {
		return nil, fresh, err
	}
	var lEmit, rEmit []int // per side; nil: every column of that side
	if emit != nil {
		nleft := 0
		for nleft < len(emit) && emit[nleft] < len(ls) {
			nleft++
		}
		lEmit, rEmit = emit[:nleft], make([]int, len(emit)-nleft)
		for i, c := range emit[nleft:] {
			rEmit[i] = c - len(ls)
		}
	}
	if semi {
		rEmit = []int{} // a semi/anti join emits no build column at all
	}
	rKeep, rsKept := buildCols(rs, rIdx, rEmit, n.Residual)
	var residual *plan.VPred
	if n.Residual != nil {
		residual, err = plan.CompilePred(n.Residual, ls.Concat(rsKept))
		if err != nil {
			return nil, fresh, err
		}
	}

	// Single-column equi-joins (the PREF-chain shape: custkey, orderkey)
	// build an int64-keyed chain table — no per-row key strings at all.
	singleKey := len(rIdx) == 1 && len(lIdx) == 1

	out, err := forEachPart(ex, top, func(p int) ([]*batch.Batch, int, error) {
		nl, nr := batch.Rows(left[p]), batch.Rows(right[p])
		// Compact the build side once so candidate lists are single int32
		// row ids instead of (batch, row) pairs.
		rflat := batch.Flatten(batch.SelectAll(right[p], rKeep), len(rsKept))
		remit := rflat
		if rEmit != nil {
			remit = rflat.Select(rEmit)
		}

		// Build side. The chain table links equal-key right rows in row
		// order (forward walks visit rows ascending — the candidate order
		// the reference's append-built lists give).
		var tab *batch.Int64Table
		var build map[value.Key][]int32
		var kb *batch.KeyBuf
		if len(n.RightCols) > 0 {
			if singleKey {
				tab = batch.IndexColumn(rflat, rIdx[0])
			} else {
				kb = batch.NewKeyBuf(len(rIdx))
				build = make(map[value.Key][]int32, nr)
				for i := 0; i < nr; i++ {
					kb.Encode(rflat, i, rIdx)
					if ids, ok := batch.Probe(kb, build); ok {
						build[kb.Key()] = append(ids, int32(i))
					} else {
						build[kb.Key()] = []int32{int32(i)}
					}
				}
			}
		}
		var all []int32
		if len(n.RightCols) == 0 {
			all = make([]int32, nr)
			for i := range all {
				all[i] = int32(i)
			}
		}

		w := batch.NewWriter(len(osch))
		pair := make([]int64, len(ls)+len(rsKept))
		var scratch []int64
		if residual != nil {
			if sn := residual.MaxFuncArgs(); sn > 0 {
				scratch = make([]int64, sn)
			}
		}
		// Per-batch pair buffers: physical left/right row ids of every
		// emitted row, gathered column-wise in one pass at batch end.
		var liBuf, riBuf, cand []int32
		for _, lb := range left[p] {
			bn := lb.Len()
			lemit := lb
			if lEmit != nil {
				lemit = lb.Select(lEmit)
			}
			liBuf, riBuf = liBuf[:0], riBuf[:0]
			if singleKey && residual == nil && n.Type == plan.Inner {
				// Fused probe+emit for the dominant shape: walk the chain
				// straight into the pair buffers, no candidate staging.
				liBuf, riBuf = tab.AppendMatches(liBuf, riBuf, lb, lIdx[0])
				w.AppendPairs(lemit, liBuf, remit, riBuf, plan.Null)
				continue
			}
			for i := 0; i < bn; i++ {
				lphys := lb.Phys(i)
				// cand collects the probe's residual-surviving matches.
				cand = cand[:0]
				if singleKey {
					ri, ok := tab.Head(lb.At(i, lIdx[0]))
					for ; ok; ri, ok = tab.Next(ri) {
						cand = append(cand, ri)
					}
				} else if len(n.RightCols) > 0 {
					kb.Encode(lb, i, lIdx)
					ids, _ := batch.Probe(kb, build)
					cand = append(cand, ids...)
				} else {
					cand = append(cand, all...) // cross/theta join
				}
				if residual != nil && len(cand) > 0 {
					lb.Row(i, pair[:len(ls)])
					kept := cand[:0]
					for _, ri := range cand {
						rflat.Row(int(ri), pair[len(ls):]) // dense: row ri is physical row ri
						if residual.EvalRow(pair, scratch) {
							kept = append(kept, ri)
						}
					}
					cand = kept
				}
				switch n.Type {
				case plan.Inner:
					for _, ri := range cand {
						liBuf = append(liBuf, int32(lphys))
						riBuf = append(riBuf, ri)
					}
				case plan.LeftOuter:
					if len(cand) == 0 {
						liBuf = append(liBuf, int32(lphys))
						riBuf = append(riBuf, -1)
					} else {
						for _, ri := range cand {
							liBuf = append(liBuf, int32(lphys))
							riBuf = append(riBuf, ri)
						}
					}
				case plan.Semi:
					if len(cand) > 0 {
						liBuf = append(liBuf, int32(lphys))
					}
				case plan.Anti:
					if len(cand) == 0 {
						liBuf = append(liBuf, int32(lphys))
					}
				}
			}
			if semi {
				w.AppendGather(lemit, liBuf)
			} else {
				w.AppendPairs(lemit, liBuf, remit, riBuf, plan.Null)
			}
		}
		out := w.Finish()
		// Join work: building the hash table, probing it, and emitting
		// output rows. Probes into an over-cache build side pay the miss
		// penalty (see ExecOptions.CacheRows).
		work := nr + nl + batch.Rows(out)
		if ex.opt.CacheRows > 0 && nr > ex.opt.CacheRows {
			work += int(float64(nl) * (missFactor - 1))
		}
		return out, work, nil
	})
	return out, fresh, err
}

// buildCols decides which build-side columns a join flattens: its keys (idx,
// remapped in place to the kept layout), the columns it emits (emit, likewise;
// nil means all of rs) and the ones its residual reads. It returns their
// positions in rs — nil when that is every column — and their schema.
func buildCols(rs plan.Schema, idx, emit []int, residual plan.BoolExpr) ([]int, plan.Schema) {
	if emit == nil {
		return nil, rs
	}
	keep := make([]bool, len(rs))
	for _, c := range idx {
		keep[c] = true
	}
	for _, c := range emit {
		keep[c] = true
	}
	if residual != nil {
		for _, name := range residual.AppendCols(nil) {
			if c := rs.Index(name); c >= 0 {
				keep[c] = true
			}
		}
	}
	remap := make([]int, len(rs))
	cols := make([]int, 0, len(rs))
	kept := make(plan.Schema, 0, len(rs))
	for c, k := range keep {
		if k {
			remap[c] = len(cols)
			cols = append(cols, c)
			kept = append(kept, rs[c])
		}
	}
	for i, c := range idx {
		idx[i] = remap[c]
	}
	for i, c := range emit {
		emit[i] = remap[c]
	}
	return cols, kept
}

// dedupVec applies the disjunctive dup=0 filter over the given dup columns
// (Section 2.2's distinct operator, batch.DistinctPref) to a batch list,
// returning the surviving batches and row count; no movement involved.
func dedupVec(bs []*batch.Batch, dupIdx []int) ([]*batch.Batch, int) {
	if len(dupIdx) == 0 {
		return bs, batch.Rows(bs)
	}
	out := make([]*batch.Batch, 0, len(bs))
	kept := 0
	for _, b := range bs {
		if fb := batch.DistinctPref(b, dupIdx); fb != nil {
			out = append(out, fb)
			kept += fb.Len()
		}
	}
	return out, kept
}

// evalDistinctPrefVec drops PREF-duplicate rows partition-locally on the
// columnar path: its output views the input.
func (ex *executor) evalDistinctPrefVec(f *frame, n *plan.DistinctPrefNode) (vparts, outKind, error) {
	top := ex.tb.Begin(n, trace.KindDistinctPref)
	in, err := f.input(n.Child)
	if err != nil {
		return nil, views, err
	}
	ex.addInputsVec(top, in)
	sch := ex.rw.Schemas[n.Child]
	dupIdx, err := sch.Indexes(n.DupCols)
	if err != nil {
		return nil, views, err
	}
	out, err := forEachPart(ex, top, func(p int) ([]*batch.Batch, int, error) {
		bs, kept := dedupVec(in[p], dupIdx)
		return bs, kept, nil
	})
	if err != nil {
		return out, views, err
	}
	// Dedup hits are derived after the fan-out so crash-retried attempts
	// cannot double-count them.
	for p := range out {
		top.AddDedup(ex.execDst[p], batch.Rows(in[p])-batch.Rows(out[p]))
	}
	return out, views, nil
}

// evalRepartitionVec hash-partitions batch rows onto their owner
// partitions.
func (ex *executor) evalRepartitionVec(f *frame, n *plan.RepartitionNode) (vparts, outKind, error) {
	top := ex.tb.Begin(n, trace.KindRepartition)
	in, err := f.input(n.Child)
	if err != nil {
		return nil, fresh, err
	}
	sch := ex.rw.Schemas[n.Child]
	idx, err := sch.Indexes(n.Cols)
	if err != nil {
		return nil, fresh, err
	}
	dupIdx, err := sch.Indexes(n.DupCols)
	if err != nil {
		return nil, fresh, err
	}
	osch, live, err := ex.liveCols(n, sch)
	if err != nil {
		return nil, fresh, err
	}
	op := ex.nextOp()
	start := time.Now()
	writers := newScatter(ex.n, len(osch))
	for src := 0; src < ex.n; src++ {
		if n.OneCopy && src != 0 {
			continue
		}
		top.AddIn(ex.execDst[src], batch.Rows(in[src]))
		bs, kept := dedupVec(in[src], dupIdx)
		top.AddDedup(ex.execDst[src], batch.Rows(in[src])-kept)
		cross := 0
		for _, b := range bs {
			// Hash on the child's columns; write only the live ones.
			wb := b
			if live != nil {
				wb = b.Select(live)
			}
			cross += writers.add(b, wb, idx, src)
		}
		if err := ex.shipBatch(top, op, src, cross, len(osch)); err != nil {
			return writers.finish(), fresh, err // a ship fault mid-scatter
		}
	}
	if n.OneCopy {
		top.SetReadOne()
	}
	out := writers.finish()
	for dst := range out {
		rows := batch.Rows(out[dst])
		top.AddWork(ex.execDst[dst], rows)
		top.AddOut(ex.execDst[dst], rows)
	}
	top.AddWall(ex.execDst[0], time.Since(start))
	return out, fresh, nil
}

// evalDistinctByValueVec deduplicates by value: a hash shuffle on the
// distinct columns so equal rows meet on one partition, then each partition
// copies out the first row of every value.
func (ex *executor) evalDistinctByValueVec(f *frame, n *plan.DistinctByValueNode) (vparts, outKind, error) {
	top := ex.tb.Begin(n, trace.KindDistinctByValue)
	in, err := f.input(n.Child)
	if err != nil {
		return nil, fresh, err
	}
	ex.addInputsVec(top, in)
	sch := ex.rw.Schemas[n.Child]
	idx, err := sch.Indexes(n.Cols)
	if err != nil {
		return nil, fresh, err
	}
	op := ex.nextOp()
	writers := newScatter(ex.n, len(sch))
	for src, bs := range in {
		cross := 0
		for _, b := range bs {
			cross += writers.add(b, b, idx, src)
		}
		if err := ex.shipBatch(top, op, src, cross, len(sch)); err != nil {
			return writers.finish(), fresh, err // a ship fault mid-scatter, as in repartition
		}
	}
	shuffled := writers.finish()
	f.scratch(shuffled)
	out, err := forEachPart(ex, top, func(p int) ([]*batch.Batch, int, error) {
		seen := make(map[value.Key]struct{}, batch.Rows(shuffled[p]))
		kb := batch.NewKeyBuf(len(idx))
		w := batch.NewWriter(len(sch))
		var sel []int32
		for _, b := range shuffled[p] {
			sel = sel[:0]
			for i, bn := 0, b.Len(); i < bn; i++ { // writer batches are dense: live row i is physical row i
				kb.Encode(b, i, idx)
				if _, dup := batch.Probe(kb, seen); !dup {
					seen[kb.Key()] = struct{}{}
					sel = append(sel, int32(i))
				}
			}
			w.AppendGather(b, sel)
		}
		out := w.Finish()
		return out, batch.Rows(out), nil
	})
	if err != nil {
		return out, fresh, err
	}
	for p := range out {
		top.AddDedup(ex.execDst[p], batch.Rows(shuffled[p])-batch.Rows(out[p]))
	}
	return out, fresh, nil
}

// scatter is the write half of a hash exchange: one writer per destination
// partition.
type scatter []*batch.Writer

func newScatter(n, width int) scatter {
	s := make(scatter, n)
	for dst := range s {
		s[dst] = batch.NewWriter(width)
	}
	return s
}

// add appends every live row of wb — b, or a column selection of it — to the
// writer of the partition that row's key (columns idx of b) hashes to, and
// returns how many rows left src.
func (s scatter) add(b, wb *batch.Batch, idx []int, src int) (cross int) {
	for i, bn := 0, b.Len(); i < bn; i++ {
		dst := int(batch.HashRow(b, i, idx) % uint64(len(s)))
		if dst != src {
			cross++
		}
		s[dst].AppendFrom(wb, i)
	}
	return cross
}

// finish seals the writers into the per-partition outputs.
func (s scatter) finish() vparts {
	out := make(vparts, len(s))
	for dst, w := range s {
		out[dst] = w.Finish()
	}
	return out
}

// evalBroadcastVec replicates the full input to every partition. The
// batch lists are shared across partitions zero-copy — batches are
// immutable once handed off, so sharing is safe. The output views the
// input.
func (ex *executor) evalBroadcastVec(f *frame, n *plan.BroadcastNode) (vparts, outKind, error) {
	top := ex.tb.Begin(n, trace.KindBroadcast)
	in, err := f.input(n.Child)
	if err != nil {
		return nil, views, err
	}
	sch := ex.rw.Schemas[n.Child]
	dupIdx, err := sch.Indexes(n.DupCols)
	if err != nil {
		return nil, views, err
	}
	osch, live, err := ex.liveCols(n, sch)
	if err != nil {
		return nil, views, err
	}
	op := ex.nextOp()
	start := time.Now()
	var all []*batch.Batch
	for src := 0; src < ex.n; src++ {
		if n.OneCopy && src != 0 {
			continue
		}
		top.AddIn(ex.execDst[src], batch.Rows(in[src]))
		bs, kept := dedupVec(in[src], dupIdx)
		top.AddDedup(ex.execDst[src], batch.Rows(in[src])-kept)
		// Each row is shipped to every other node.
		if err := ex.shipBatch(top, op, src, kept*(ex.n-1), len(osch)); err != nil {
			return nil, views, err
		}
		all = append(all, batch.SelectAll(bs, live)...)
	}
	if n.OneCopy {
		top.SetReadOne()
	}
	total := batch.Rows(all)
	// Clamp the shared batch list so a downstream append through one
	// partition's slot cannot overwrite its siblings'.
	all = all[:len(all):len(all)]
	out := make(vparts, ex.n)
	for p := 0; p < ex.n; p++ {
		out[p] = all
		top.AddWork(ex.execDst[p], total)
		top.AddOut(ex.execDst[p], total)
	}
	top.AddWall(ex.execDst[0], time.Since(start))
	return out, views, nil
}

// evalGatherVec concentrates all partitions' batches on the coordinator: a
// fresh output when it compacts them, a view of them when it passes them
// through.
func (ex *executor) evalGatherVec(f *frame, n *plan.GatherNode) (vparts, outKind, error) {
	top := ex.tb.Begin(n, trace.KindGather)
	in, err := f.input(n.Child)
	if err != nil {
		return nil, views, err
	}
	osch, live, err := ex.liveCols(n, ex.rw.Schemas[n.Child])
	if err != nil {
		return nil, views, err
	}
	start := time.Now()
	out := make(vparts, ex.n)
	if n.OneCopy {
		top.SetReadOne()
		rows := batch.Rows(in[0])
		top.AddIn(ex.execDst[0], rows)
		out[0] = batch.SelectAll(in[0][:len(in[0]):len(in[0])], live)
		top.AddWork(ex.execDst[0], rows)
		top.AddOut(ex.execDst[0], rows)
		top.AddWall(ex.execDst[0], time.Since(start))
		return out, views, nil
	}
	op := ex.nextOp()
	var bs []*batch.Batch
	total, nbatch, sparse := 0, 0, false
	for p := 0; p < ex.n; p++ {
		rows := batch.Rows(in[p])
		top.AddIn(ex.execDst[p], rows)
		if p != 0 {
			if err := ex.shipBatch(top, op, p, rows, len(osch)); err != nil {
				return nil, views, err
			}
		}
		for _, b := range in[p] {
			if !b.Dense() {
				sparse = true
			}
		}
		nbatch += len(in[p])
		total += rows
	}
	// Shipped rows arrive materialized: compact when the inputs are
	// selection-vector views or badly fragmented, so downstream work (and
	// the Result assembly's AppendRows) sees a few dense batches
	// instead of hundreds of mostly-empty windows. Dense well-packed
	// inputs concatenate zero-copy.
	kind := views
	if sparse || nbatch > 2*(total/batch.Size+1) {
		w := batch.NewWriter(len(osch))
		for p := 0; p < ex.n; p++ {
			for _, b := range batch.SelectAll(in[p], live) {
				w.AppendBatch(b)
			}
		}
		out[0], kind = w.Finish(), fresh
	} else {
		for p := 0; p < ex.n; p++ {
			bs = append(bs, batch.SelectAll(in[p], live)...)
		}
		out[0] = bs
	}
	top.AddWork(ex.execDst[0], total)
	top.AddOut(ex.execDst[0], total)
	top.AddWall(ex.execDst[0], time.Since(start))
	return out, kind, nil
}
