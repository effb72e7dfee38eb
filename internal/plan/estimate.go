package plan

import (
	"math"
	"time"

	"pref/internal/catalog"
	"pref/internal/par"
	"pref/internal/stats"
	"pref/internal/table"
	"pref/internal/value"
)

// The estimator.
//
// The rewrite makes choices whose right answer depends on the data: how a
// misaligned equi-join meets (rewrite_join.go), whether an aggregate is
// summed below its key join (eager.go), whether a broadcast input's runtime
// filter earns its transfer (transfer.go), and whether the root aggregate
// merges its partial states at the coordinator (rewrite.go), and whether a
// partial aggregate runs below its lookup joins (lookup.go). One estimator
// prices them all. It reads per-table statistics gathered from the partitioned
// database in one pass (GatherStats) and estimates, for any operator of the
// plan, its output rows and the distinct count and value range of each of
// its columns. A choice is priced in the terms of the CostModel that
// engine.Simulate applies to exact counts: bytes shipped, rows processed on
// the busiest node, and exchanges started.
//
// The model is the textbook one, without constants of its own:
//
//   - Filters: ranges on one column intersect with each other and with the
//     column's [min, max]; equality is 1/ndv, IN is k/ndv, equality of two
//     columns is 1/max(ndv) and their other comparisons keep every row;
//     AND multiplies, OR is the complement of the misses, NOT the complement.
//   - Inner equi-joins: |L|·|R|/max(ndv) over the key; a composite key that
//     is a foreign key (or the primary key) of one table counts the
//     referenced table's rows as its distinct values. On a single-column
//     foreign key whose DATE columns keep a declared gap (catalog.DateGap),
//     the pairs whose dates the gap rules out are taken away (gapShare). Semi
//     and anti joins keep the share of the left keys the right contains;
//     with a residual, a key match counts only in the share of rows the
//     residual keeps.
//   - Aggregates: groups are capped by the product of the group-by distinct
//     counts; a partial aggregate emits each group once per partition it
//     spans, stats.ExpectedCopiesReal(rows/group, n) — the paper's Appendix A
//     formula.
//   - Runtime filters keep the share of their keys the source contains; on
//     a foreign key whose dates keep a declared gap, that share is at most
//     the share of the target's rows dated in the window its source's dates
//     allow (gapWindows), and the target's date narrows to that window. The
//     same containment (contain) sizes semi and anti joins and every
//     local-filter decision.
//   - Distinct values thin out as rows are removed: k rows drawn from d
//     values hold ExpectedCopiesReal(k, d) of them. A join that removes no
//     row of an input keeps all of that input's values.
//   - Computed columns: a Monotone function of one column ranges over
//     [f(lo), f(hi)] of its argument and holds at most f(hi) − f(lo) + 1 of
//     the argument's values; any other expression may hold one per row.
//
// Row counts are logical: PREF duplicates are not counted, as the
// exchanges, which the estimates price, ship none.

// Stats are per-table statistics of one partitioned database: what the
// rewrite's estimator reads. Gather them with GatherStats.
type Stats struct {
	Tables map[string]*TableStats
}

// TableStats describes one table: its row count, each tuple counted once,
// and one ColStats per column in schema order.
type TableStats struct {
	Rows float64
	Cols []ColStats
}

// ColStats describes one column: its value range and its distinct count.
type ColStats struct {
	Min, Max int64
	NDV      float64
}

// GatherStats reads the published epoch of every table of pdb once: it
// counts rows, skipping PREF duplicates and every copy of a replicated table
// but the first, and takes each column's min and max. Distinct counts come
// from the catalog rather than from hashing: a single-column primary key
// has one per row, a single-column foreign key at most as many as the
// referenced table has rows, a string column at most its dictionary's size,
// and any other column at most max − min + 1.
//
// The partitions are read on parallel workers, one partition a job; the
// merge is exact in any order (integer counts, minima and maxima).
func GatherStats(pdb *table.PartitionedDatabase) *Stats {
	snap := pdb.Snapshot()
	st := &Stats{Tables: make(map[string]*TableStats, len(pdb.Tables))}
	type job struct {
		ts   *TableStats
		part *table.Partition
		live int
		cols []ColStats
	}
	var jobs []job
	for name, pt := range pdb.Tables {
		parts := partsOnce(pt, snap)
		ts := &TableStats{Cols: make([]ColStats, pt.Meta.NumCols())}
		for j := range ts.Cols {
			ts.Cols[j] = ColStats{Min: math.MaxInt64, Max: math.MinInt64}
		}
		for _, p := range parts {
			jobs = append(jobs, job{ts: ts, part: p})
		}
		st.Tables[name] = ts
	}
	par.Each(len(jobs), func(i int) {
		jb := &jobs[i]
		w := len(jb.ts.Cols)
		cols := jb.part.Columns(w).Cols
		dup := cols[w]
		for _, d := range dup {
			if d == 0 {
				jb.live++
			}
		}
		jb.cols = make([]ColStats, w)
		for j := range jb.cols {
			jb.cols[j].Min, jb.cols[j].Max = valueRange(cols[j], dup, jb.live < len(dup), math.MaxInt64, math.MinInt64)
		}
	})
	for _, jb := range jobs {
		jb.ts.Rows += float64(jb.live)
		for j, c := range jb.cols {
			cs := &jb.ts.Cols[j]
			cs.Min, cs.Max = min(cs.Min, c.Min), max(cs.Max, c.Max)
		}
	}
	for name, ts := range st.Tables {
		meta := pdb.Tables[name].Meta
		for j, c := range meta.Columns {
			cs := &ts.Cols[j]
			if cs.Min > cs.Max {
				continue // no values: NDV stays 0
			}
			ndv := float64(cs.Max) - float64(cs.Min) + 1
			switch ref := refRows(pdb.Schema, st, name, c.Name); {
			case len(meta.PK) == 1 && meta.PK[0] == c.Name:
				ndv = ts.Rows
			case ref >= 0:
				ndv = ref
			case c.Kind == value.Str:
				ndv = float64(max(1, meta.Dict(c.Name).Size()-1)) // "" is code 0
			}
			cs.NDV = min(ts.Rows, ndv)
		}
	}
	return st
}

// partsOnce returns the partitions of pt that hold each of its rows
// once, PREF duplicates aside: the first copy of a replicated table, every
// partition of any other.
func partsOnce(pt *table.Partitioned, snap *table.DBSnapshot) []*table.Partition {
	parts := snap.Parts(pt.Meta.Name)
	if pt.Replicated && len(parts) > 1 {
		parts = parts[:1]
	}
	return parts
}

// valueRange widens [lo, hi] by the non-NULL values of col, skipping the
// rows whose dup flag is set when dups is true.
func valueRange(col, dup []int64, dups bool, lo, hi int64) (int64, int64) {
	for i, v := range col {
		if v == Null || dups && dup[i] != 0 {
			continue
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// refRows returns the row count of the table a single-column foreign key
// from tbl.col references, or −1 when there is none.
func refRows(s *catalog.Schema, st *Stats, tbl, col string) float64 {
	for _, fk := range s.FKs {
		if fk.FromTable == tbl && len(fk.FromCols) == 1 && fk.FromCols[0] == col {
			if ref, ok := st.Tables[fk.ToTable]; ok {
				return ref.Rows
			}
		}
	}
	return -1
}

// colEst is the estimator's view of one column of an operator's output:
// its distinct count, its value range (lo > hi when unknown), and the base
// column it carries unchanged, if any.
type colEst struct {
	ndv          float64
	lo, hi       float64
	alias, table string
	col          string
}

func (c colEst) ranged() bool { return c.lo <= c.hi }

// distinct is the number of distinct values k rows drawn uniformly from d
// values hold.
func distinct(k, d float64) float64 {
	if d < 1 || k < 1 {
		return min(k, d)
	}
	return min(d, stats.ExpectedCopiesReal(k, int(math.Min(d, math.MaxInt32))))
}

// rows estimates the output rows of a physical operator of the plan being
// rewritten.
func (r *Rewriter) rows(n Node) float64 {
	if v, ok := r.memo[n]; ok {
		return v
	}
	v := max(0, r.estimateRows(n))
	r.memo[n] = v
	return v
}

func (r *Rewriter) estimateRows(n Node) float64 {
	switch n := n.(type) {
	case *ScanNode:
		if ts := r.Opt.Stats.Tables[n.Table]; ts != nil {
			return ts.Rows
		}
		return 0
	case *FilterNode:
		return r.rows(n.Child) * r.sel(n.Pred, r.lookup(n.Child))
	case *RuntimeFilterNode:
		src, key := n.From.SourceInput()
		return r.rows(n.Child) * r.contain(src, []string{key}, n.Child, []string{n.Col})
	case *JoinNode:
		return r.joinRows(n)
	case *AggregateNode:
		return r.groups(n.Child, n.GroupBy)
	case *PartialAggNode:
		in := r.rows(n.Child)
		g := r.groups(n.Child, n.GroupBy)
		if g < 1 {
			return g
		}
		return g * stats.ExpectedCopiesReal(in/g, r.Cfg.NumPartitions)
	case *FinalAggNode:
		if _, top := partialBelow(n.Child); top != nil {
			return r.groups(top, n.GroupBy)
		}
		return r.rows(n.Child)
	case *TopKNode:
		in := r.rows(n.Child)
		switch {
		case n.Limit <= 0:
			return in
		case n.Final:
			return min(in, float64(n.Limit))
		}
		return min(in, float64(n.Limit*r.Cfg.NumPartitions))
	}
	if ch := n.Children(); len(ch) == 1 {
		return r.rows(ch[0]) // exchanges, projections and distincts keep the logical rows
	}
	return 0
}

// partialBelow finds the partial aggregate p whose states n, the input of a
// final aggregate, carries, and the node top below the exchange whose output
// holds the final group-by columns: p's input, or the top of the lookup joins
// that p's states feed when p runs below them (lookup.go).
func partialBelow(n Node) (p *PartialAggNode, top Node) {
	for {
		switch x := n.(type) {
		case *PartialAggNode:
			if top == nil {
				top = x.Child
			}
			return x, top
		case *RepartitionNode:
			n = x.Child
		case *GatherNode:
			n = x.Child
		case *JoinNode:
			if top == nil {
				top = x
			}
			n = x.Left
			if _, ok := x.Right.(*JoinNode); ok || isPartial(x.Right) {
				n = x.Right
			}
		default:
			return nil, nil
		}
	}
}

func isPartial(n Node) bool { _, ok := n.(*PartialAggNode); return ok }

// groups estimates the number of groups an aggregation of n by groupBy
// forms: one without a group-by, else at most the product of the group-by
// columns' distinct counts.
func (r *Rewriter) groups(n Node, groupBy []string) float64 {
	in := r.rows(n)
	if len(groupBy) == 0 {
		return min(in, 1)
	}
	return min(in, r.keyNDV(n, groupBy))
}

// joinRows estimates a join's output.
func (r *Rewriter) joinRows(j *JoinNode) float64 {
	l, rr := r.rows(j.Left), r.rows(j.Right)
	if j.Type == Semi || j.Type == Anti {
		match := r.contain(j.Right, j.RightCols, j.Left, j.LeftCols)
		if j.Residual != nil {
			match *= r.sel(j.Residual, r.lookup(j.Left, j.Right))
		}
		if j.Type == Anti {
			return l * (1 - match)
		}
		return l * match
	}
	out := l * rr
	if len(j.LeftCols) > 0 {
		out /= max(1, r.keyNDV(j.Left, j.LeftCols), r.keyNDV(j.Right, j.RightCols))
	}
	if j.Type == Inner && len(j.LeftCols) == 1 {
		out *= r.gapShare(j)
	}
	if j.Residual != nil {
		out *= r.sel(j.Residual, r.lookup(j.Left, j.Right))
	}
	if j.Type == LeftOuter {
		out = max(out, l)
	}
	return out
}

// gapShare is the share of an inner join's pairs the DATE gaps of its key
// leave possible, where the independence estimate counts them all. Each
// input in turn is the target: its rows can meet the other input's only if
// dated in the window gapWindows derives. The share of the target's rows
// dated in that window, over the share of all its table's rows dated there,
// corrects the pairs. Gaps only rule pairs out: the smallest share counts,
// and none above 1.
func (r *Rewriter) gapShare(j *JoinNode) float64 {
	share := 1.0
	visit := func(target Node) func(string, string, string, float64, float64) {
		return func(name, tbl, col string, lo, hi float64) {
			ts, t := r.Opt.Stats.Tables[tbl], r.Schema.Table(tbl)
			kept, ok := r.colBelow(target, name)
			if ts == nil || t == nil || !ok || !kept.ranged() {
				return
			}
			full := ts.Cols[t.ColIndex(col)]
			if all := inWindow(float64(full.Min), float64(full.Max), lo, hi); all > 0 {
				share = min(share, inWindow(kept.lo, kept.hi, lo, hi)/all)
			} else {
				share = 0
			}
		}
	}
	r.gapWindows(j.Left, j.LeftCols[0], j.Right, j.RightCols[0], visit(j.Left))
	r.gapWindows(j.Right, j.RightCols[0], j.Left, j.LeftCols[0], visit(j.Right))
	return share
}

// inWindow is the share of the days of [lo, hi] that lie in the window
// [wlo, whi]: with dates spread evenly, the share of the rows dated in
// [lo, hi] that are dated in the window. An empty [lo, hi] has none.
func inWindow(lo, hi, wlo, whi float64) float64 {
	days := func(lo, hi float64) float64 { return max(0, hi-lo+1) }
	if all := days(lo, hi); all > 0 {
		return days(max(lo, wlo), min(hi, whi)) / all
	}
	return 0
}

// gapWindows calls visit once for each declared DateGap of the foreign key
// between target's key column tkey and source's skey whose source-side date
// source still bounds: with the target-side date column's name in target,
// its base table and column, and the window of dates a target row can hold
// if its key meets a source row (gapEdges orients the gap). A source date an
// aggregate summed away is read below it (colBelow).
func (r *Rewriter) gapWindows(target Node, tkey string, source Node, skey string, visit func(name, tbl, col string, lo, hi float64)) {
	tk, tok := r.col(target, tkey)
	sk, sok := r.col(source, skey)
	if !tok || !sok {
		return
	}
	for _, e := range gapEdges(r.Schema, tk.table, tk.col, sk.table, sk.col) {
		if s, ok := r.colBelow(source, sk.alias+"."+e.sdate); ok && s.ranged() {
			visit(tk.alias+"."+e.tdate, tk.table, e.tdate, s.lo+float64(e.lo), s.hi+float64(e.hi))
		}
	}
}

// colBelow estimates column name of n's output or, where an aggregate, an
// exchange or a projection above it dropped the column, of the nearest
// input below that still carries it.
func (r *Rewriter) colBelow(n Node, name string) (colEst, bool) {
	for r.out.Schemas[n].Index(name) < 0 {
		ch := n.Children()
		if len(ch) != 1 {
			return colEst{}, false
		}
		n = ch[0]
	}
	return r.col(n, name)
}

// contain estimates the share of target's key values (columns tcols) that
// source holds in columns scols: the containment of the smaller key set in
// the larger one. On a single key column whose DATE gaps tie target's dates
// to source's (gapWindows), it is at most the share of target's rows dated
// in the window source's dates allow: a key whose rows lie outside it meets
// no source row. An input estimated to hold less than one key counts as
// holding one: a source whose estimate rounds to nothing does not pass for
// a filter that drops every row of a small target.
func (r *Rewriter) contain(source Node, scols []string, target Node, tcols []string) float64 {
	s, t := r.keyNDV(source, scols), r.keyNDV(target, tcols)
	share := min(1, max(1, s)/max(1, t))
	if len(tcols) == 1 {
		r.gapWindows(target, tcols[0], source, scols[0], func(name, _, _ string, lo, hi float64) {
			if c, ok := r.colBelow(target, name); ok && c.ranged() {
				share = min(share, inWindow(c.lo, c.hi, lo, hi))
			}
		})
	}
	return share
}

// keyNDV estimates the distinct values of the column tuple cols in n's
// output. A composite key of one base table that is its primary key or one
// of its foreign keys has as many as the table, or the referenced table, has
// rows; any other tuple at most the product of its columns'.
func (r *Rewriter) keyNDV(n Node, cols []string) float64 {
	rows := r.rows(n)
	if len(cols) == 1 {
		e, ok := r.col(n, cols[0])
		if !ok {
			return rows
		}
		return min(rows, e.ndv)
	}
	ests := make([]colEst, len(cols))
	prod := 1.0
	for i, c := range cols {
		e, ok := r.col(n, c)
		if !ok {
			return rows
		}
		ests[i] = e
		prod *= max(1, e.ndv)
	}
	// Columns of one table beside its single-column primary key hold no more
	// values together than the key does.
	for _, k := range ests {
		t := r.Schema.Table(k.table)
		if t == nil || len(t.PK) != 1 || k.col != t.PK[0] {
			continue
		}
		with := 1.0
		for _, e := range ests {
			if e.alias == k.alias {
				with *= max(1, e.ndv)
			}
		}
		prod = prod / with * max(1, k.ndv)
	}
	names := make([]string, len(cols))
	for i, e := range ests {
		if e.table == "" || e.alias != ests[0].alias {
			return min(rows, prod)
		}
		names[i] = e.col
	}
	if base := r.tupleRows(ests[0].table, names); base >= 0 {
		prod = min(prod, distinct(rows, base))
	}
	return min(rows, prod)
}

// tupleRows returns the distinct values of table tbl's column tuple cols
// when it is the primary key or a foreign key, or −1.
func (r *Rewriter) tupleRows(tbl string, cols []string) float64 {
	ts := r.Opt.Stats.Tables[tbl]
	if ts == nil {
		return -1
	}
	if t := r.Schema.Table(tbl); t != nil && t.IsPK(cols) {
		return ts.Rows
	}
	for _, fk := range r.Schema.FKs {
		if fk.FromTable == tbl && len(fk.FromCols) == len(cols) && allIn(fk.FromCols, cols) {
			if ref := r.Opt.Stats.Tables[fk.ToTable]; ref != nil {
				return min(ts.Rows, ref.Rows)
			}
		}
	}
	return -1
}

// lookup resolves column names against the outputs of the given inputs, the
// first that has the column winning.
func (r *Rewriter) lookup(inputs ...Node) func(string) (colEst, bool) {
	return func(name string) (colEst, bool) {
		for _, in := range inputs {
			if r.out.Schemas[in].Index(name) >= 0 {
				return r.col(in, name)
			}
		}
		return colEst{}, false
	}
}

// col estimates column name of n's output; false when nothing is known.
// Like rows, it is memoized per node, by column.
func (r *Rewriter) col(n Node, name string) (colEst, bool) {
	key := colKey{n, name}
	if c, ok := r.cols[key]; ok {
		return c.est, c.ok
	}
	est, ok := r.estimateCol(n, name)
	r.cols[key] = colMemo{est, ok}
	return est, ok
}

// colKey names one column of one operator's output.
type colKey struct {
	n    Node
	name string
}

// colMemo is one memoized column estimate.
type colMemo struct {
	est colEst
	ok  bool
}

func (r *Rewriter) estimateCol(n Node, name string) (colEst, bool) {
	switch n := n.(type) {
	case *ScanNode:
		ts := r.Opt.Stats.Tables[n.Table]
		t := r.Schema.Table(n.Table)
		if ts == nil || t == nil || len(name) <= len(n.Alias) || name[:len(n.Alias)+1] != n.Alias+"." {
			return colEst{}, false
		}
		j := t.ColIndex(name[len(n.Alias)+1:])
		if j < 0 {
			return colEst{}, false
		}
		cs := ts.Cols[j]
		return colEst{ndv: cs.NDV, lo: float64(cs.Min), hi: float64(cs.Max),
			alias: n.Alias, table: n.Table, col: t.Columns[j].Name}, true
	case *FilterNode:
		c, ok := r.col(n.Child, name)
		if !ok {
			return c, false
		}
		if lo, hi, found := rangeIn(n.Pred, name); found {
			c = narrow(c, lo, hi)
		}
		c.ndv = distinct(r.rows(n), c.ndv)
		return c, true
	case *RuntimeFilterNode:
		c, ok := r.col(n.Child, name)
		if !ok {
			return c, false
		}
		src, key := n.From.SourceInput()
		if name == n.Col {
			if s, ok := r.col(src, key); ok {
				c.ndv = min(c.ndv, s.ndv)
			}
		}
		if c.table != "" && r.Schema.Gapped(c.table, c.col) {
			r.gapWindows(n.Child, n.Col, src, key, func(date, _, _ string, lo, hi float64) {
				if date == name {
					c = narrow(c, lo, hi)
				}
			})
		}
		c.ndv = distinct(r.rows(n), c.ndv)
		return c, true
	case *ProjectNode:
		for i, nm := range n.Names {
			if nm != name {
				continue
			}
			if src, ok := ColName(n.Exprs[i]); ok {
				return r.col(n.Child, src)
			}
			return r.computedCol(n, n.Exprs[i]), true
		}
		return colEst{}, false
	case *JoinNode:
		return r.joinCol(n, name)
	case *AggregateNode:
		return r.aggCol(n, n.Child, n.Child, n.GroupBy, n.Aggs, name)
	case *PartialAggNode:
		return r.aggCol(n, n.Child, n.Child, n.GroupBy, n.Aggs, name)
	case *FinalAggNode:
		if p, top := partialBelow(n.Child); p != nil {
			return r.aggCol(n, top, p.Child, n.GroupBy, n.Aggs, name)
		}
		return colEst{}, false
	}
	if ch := n.Children(); len(ch) == 1 {
		return r.col(ch[0], name)
	}
	return colEst{}, false
}

// computedCol estimates a column the projection n computes by e. A monotone
// function of one column ranges over [f(lo), f(hi)] of its argument's range
// and holds at most f(hi) − f(lo) + 1 values, and no more than its argument
// holds; any other expression may hold a value per row, over no known range.
func (r *Rewriter) computedCol(n *ProjectNode, e ValExpr) colEst {
	rows := r.rows(n)
	f, ok := e.(funcExpr)
	if !ok || !f.monotone {
		return colEst{ndv: rows, lo: 1, hi: 0}
	}
	arg, ok := r.col(n.Child, f.cols[0])
	if !ok || !arg.ranged() {
		return colEst{ndv: rows, lo: 1, hi: 0}
	}
	lo, hi := float64(f.fn([]int64{int64(arg.lo)})), float64(f.fn([]int64{int64(arg.hi)}))
	return colEst{ndv: min(rows, arg.ndv, hi-lo+1), lo: lo, hi: hi}
}

// joinCol estimates a join's output column: an inner join's key holds the
// values both inputs hold, any other column thins out with the rows the join
// drops of its input. A join estimated to keep every row of the column's
// input, as a lookup every row meets does, keeps all its values.
func (r *Rewriter) joinCol(j *JoinNode, name string) (colEst, bool) {
	side, other, cols, ocols := j.Left, j.Right, j.LeftCols, j.RightCols
	if r.out.Schemas[j.Left].Index(name) < 0 {
		side, other, cols, ocols = j.Right, j.Left, j.RightCols, j.LeftCols
	}
	c, ok := r.col(side, name)
	if !ok {
		return c, false
	}
	if j.Type == Inner || j.Type == Semi {
		for i, k := range cols {
			if k != name {
				continue
			}
			if o, ok := r.col(other, ocols[i]); ok {
				c.ndv = min(c.ndv, o.ndv)
			}
		}
	}
	if r.rows(j) < r.rows(side) {
		c.ndv = distinct(r.rows(j), c.ndv)
	}
	return c, true
}

// aggCol estimates an aggregation's output column: a group-by column keeps
// its values in in, capped by the groups; an aggregate's value ranges over
// its argument's range in args (SUM over a group's average size times it,
// COUNT around that size). in and args differ only for a final aggregate
// over a partial that ran below lookup joins: args is the partial's input,
// in the joins' output.
func (r *Rewriter) aggCol(n, in, args Node, groupBy []string, aggs []AggExpr, name string) (colEst, bool) {
	rows := r.rows(n)
	for _, g := range groupBy {
		if g == name {
			c, ok := r.col(in, name)
			c.ndv = min(c.ndv, rows)
			return c, ok
		}
	}
	k := r.rows(args) / max(1, r.groups(in, groupBy))
	for _, a := range aggs {
		if a.As != name {
			continue
		}
		c := colEst{ndv: rows, lo: 1, hi: 0}
		var arg colEst
		ok := false
		if a.Arg != nil {
			if src, isCol := ColName(a.Arg); isCol {
				arg, ok = r.col(args, src)
			}
		}
		switch {
		case a.Fn == CountFn || a.Fn == CountDistinctFn:
			c.lo, c.hi = 1, max(1, 2*k-1)
		case ok && arg.ranged() && a.Fn == SumFn:
			c.lo, c.hi = arg.lo*k, arg.hi*k
		case ok && arg.ranged():
			c.lo, c.hi = arg.lo, arg.hi
		}
		return c, true
	}
	return colEst{}, false
}

// narrow restricts a column to the values in [lo, hi].
func narrow(c colEst, lo, hi float64) colEst {
	if !c.ranged() {
		if lo == hi {
			c.ndv = min(c.ndv, 1)
		}
		return c
	}
	nlo, nhi := max(c.lo, lo), min(c.hi, hi)
	if nlo > nhi {
		c.ndv, c.lo, c.hi = 0, nlo, nlo
		return c
	}
	c.ndv *= (nhi - nlo + 1) / (c.hi - c.lo + 1)
	c.lo, c.hi = nlo, nhi
	return c
}

// sel estimates the share of rows pred keeps, its columns resolved by look.
func (r *Rewriter) sel(pred BoolExpr, look func(string) (colEst, bool)) float64 {
	switch p := pred.(type) {
	case andExpr:
		s := 1.0
		type span struct {
			col    string
			lo, hi float64
		}
		var spans []span // in order of appearance: products stay reproducible
	conj:
		for _, x := range p.xs {
			if col, lo, hi, ok := cmpRange(x); ok {
				for i := range spans {
					if spans[i].col == col {
						spans[i].lo, spans[i].hi = max(spans[i].lo, lo), min(spans[i].hi, hi)
						continue conj
					}
				}
				spans = append(spans, span{col, lo, hi})
				continue
			}
			s *= r.sel(x, look)
		}
		for _, sp := range spans {
			s *= rangeSel(look, sp.col, sp.lo, sp.hi)
		}
		return s
	case orExpr:
		miss := 1.0
		for _, x := range p.xs {
			miss *= 1 - r.sel(x, look)
		}
		return 1 - miss
	case notExpr:
		return 1 - r.sel(p.x, look)
	case inExpr:
		c, ok := look(p.col)
		if !ok || c.ndv <= 0 {
			return 1
		}
		k := 0.0
		for _, v := range p.vals {
			if !c.ranged() || (float64(v) >= c.lo && float64(v) <= c.hi) {
				k++
			}
		}
		return min(1, k/c.ndv)
	case cmpExpr:
		if col, lo, hi, ok := cmpRange(p); ok {
			return rangeSel(look, col, lo, hi)
		}
		lc, lok := ColName(p.l)
		rc, rok := ColName(p.r)
		if !lok || !rok {
			return 1
		}
		a, aok := look(lc)
		b, bok := look(rc)
		if !aok || !bok {
			return 1
		}
		switch p.op {
		case EQ:
			return 1 / max(1, a.ndv, b.ndv)
		case NE:
			return 1 - 1/max(1, a.ndv, b.ndv)
		}
		return 1
	}
	return 1
}

// rangeSel is the share of a column's rows in [lo, hi].
func rangeSel(look func(string) (colEst, bool), col string, lo, hi float64) float64 {
	c, ok := look(col)
	if !ok {
		return 1
	}
	if lo == hi {
		if c.ranged() && (lo < c.lo || lo > c.hi) {
			return 0
		}
		return 1 / max(1, c.ndv)
	}
	if !c.ranged() {
		return 1
	}
	nlo, nhi := max(c.lo, lo), min(c.hi, hi)
	if nlo > nhi {
		return 0
	}
	return (nhi - nlo + 1) / (c.hi - c.lo + 1)
}

// mirrored is the operator of a comparison with its operands swapped.
var mirrored = [...]CmpOp{EQ: EQ, NE: NE, LT: GT, LE: GE, GT: LT, GE: LE}

// cmpRange reads a comparison of a column with a literal as the range of
// values it keeps.
func cmpRange(x BoolExpr) (col string, lo, hi float64, ok bool) {
	name, op, lit, ok := colLit(x)
	if !ok {
		return "", 0, 0, false
	}
	v := float64(lit)
	switch op {
	case EQ:
		return name, v, v, true
	case LT:
		return name, math.Inf(-1), v - 1, true
	case LE:
		return name, math.Inf(-1), v, true
	case GT:
		return name, v + 1, math.Inf(1), true
	case GE:
		return name, v, math.Inf(1), true
	}
	return "", 0, 0, false
}

// rangeIn intersects the ranges the top-level conjuncts of pred put on col.
func rangeIn(pred BoolExpr, col string) (lo, hi float64, found bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	xs := []BoolExpr{pred}
	if a, ok := pred.(andExpr); ok {
		xs = a.xs
	}
	for _, x := range xs {
		if c, l, h, ok := cmpRange(x); ok && c == col {
			lo, hi, found = max(lo, l), min(hi, h), true
		}
	}
	return lo, hi, found
}

// price is an estimated cost in the CostModel's three terms.
type price struct {
	bytes, nodeRows float64
	exchanges       int
}

func (p price) time() time.Duration {
	return DefaultCostModel().Time(p.nodeRows, p.bytes, p.exchanges)
}

// beats reports whether p ships no more bytes than q and takes strictly
// less simulated time.
func (p price) beats(q price) bool {
	return p.bytes <= q.bytes && p.time() < q.time()
}

// cost prices the physical subtree n in the CostModel's three terms: the
// bytes its exchanges ship, the rows its busiest node processes, and the
// exchanges it starts.
func (r *Rewriter) cost(n Node) price {
	return price{bytes: r.shipped(n), nodeRows: r.nodeRows(n), exchanges: exchanges(n)}
}

// nodeRows estimates the rows the busiest node processes in the physical
// subtree n, charging each operator as the engine charges its work: a join
// its two inputs and its output, any other operator the rows it emits (an
// exchange the rows it delivers). A partitioned operator puts 1/n of them on
// each node, a replicated one all of them on every node, and a gathered one
// all of them on the coordinator, taken to be the busiest node.
func (r *Rewriter) nodeRows(n Node) float64 {
	w := r.share(n, r.rows(n))
	if j, ok := n.(*JoinNode); ok {
		w += r.share(j.Left, r.rows(j.Left)) + r.share(j.Right, r.rows(j.Right))
	}
	for _, c := range n.Children() {
		w += r.nodeRows(c)
	}
	return w
}

// share is the part of rows of operator n's output one node holds.
func (r *Rewriter) share(n Node, rows float64) float64 {
	if p := r.out.Props[n]; p != nil && (p.Repl || p.Gathered) {
		return rows
	}
	return rows / float64(r.Cfg.NumPartitions)
}

// refsOf counts the column reads of the logical subtree n.
func refsOf(n Node) colSet {
	s := colSet{}
	var walk func(Node)
	walk = func(n Node) {
		switch n := n.(type) {
		case *FilterNode:
			s.add(n.Pred.AppendCols(nil))
		case *ProjectNode:
			for _, e := range n.Exprs {
				s.add(e.AppendCols(nil))
			}
		case *JoinNode:
			s.add(n.LeftCols)
			s.add(n.RightCols)
			if n.Residual != nil {
				s.add(n.Residual.AppendCols(nil))
			}
		case *AggregateNode:
			s.add(aggReadList(n.GroupBy, n.Aggs))
		case *TopKNode:
			for _, o := range n.Order {
				s.add([]string{o.Col})
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return s
}

// width is the number of columns of sch a row of the logical subtree n
// carries up: those the plan reads outside n. Column pruning later cuts an
// exchange over n to exactly those.
func (r *Rewriter) width(sch Schema, n Node) float64 {
	inside := refsOf(n)
	w := 0
	for _, f := range sch {
		if !IsHiddenCol(f.Name) && r.refs[f.Name] > inside[f.Name] {
			w++
		}
	}
	return float64(max(1, w))
}

// shipWidth is width for the input of an exchange: a partial aggregate's
// states are all read above it; anything else is traced to the logical node
// it was rewritten from.
func (r *Rewriter) shipWidth(n Node) float64 {
	sch := r.out.Schemas[n]
	for x := n; ; {
		if _, ok := x.(*PartialAggNode); ok {
			return float64(len(sch))
		}
		if o, ok := r.origin[x]; ok {
			return r.width(sch, o)
		}
		ch := x.Children()
		if len(ch) != 1 {
			return float64(len(sch))
		}
		x = ch[0]
	}
}

// shipped estimates the bytes the exchanges of the physical subtree n ship:
// a repartition or a gather sends the share (n−1)/n of its input's rows to
// another node, a broadcast sends every row to the n−1 others. The exchange
// below a final aggregate ships what the merge reads, the group-by and the
// states (mergeReads), also when lookup joins run on the states below it
// (lookup.go) and add their keys and lookup columns to its input.
func (r *Rewriter) shipped(n Node) float64 {
	if f, ok := n.(*FinalAggNode); ok && r.copies(f.Child) > 0 {
		in := f.Child.Children()[0]
		w := float64(len(mergeReads(f.GroupBy, f.Aggs)))
		return r.rows(in)*w*8*r.copies(f.Child) + r.shipped(in)
	}
	out := 0.0
	if copies := r.copies(n); copies > 0 {
		in := n.Children()[0]
		out = r.rows(in) * r.shipWidth(in) * 8 * copies
	}
	for _, c := range n.Children() {
		out += r.shipped(c)
	}
	return out
}

// copies is the number of copies of each input row the exchange n sends to
// another node; 0 when n is no exchange.
func (r *Rewriter) copies(n Node) float64 {
	parts := float64(r.Cfg.NumPartitions)
	switch x := n.(type) {
	case *RepartitionNode, *DistinctByValueNode:
		return (parts - 1) / parts
	case *GatherNode:
		if !x.OneCopy {
			return (parts - 1) / parts
		}
	case *BroadcastNode:
		return parts - 1
	}
	return 0
}
