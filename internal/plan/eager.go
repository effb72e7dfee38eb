package plan

import (
	"maps"
	"slices"
	"time"

	"pref/internal/partition"
)

// Eager aggregation below key joins.
//
// The §2.2 rewrite places an aggregate above the joins that feed it, so when
// those joins are not co-located every input row crosses the network before
// it is summed. Eager aggregation (Yan & Larson, "Eager Aggregation and Lazy
// Aggregation", VLDB 1995) sums one join input per join key first and joins
// the sums instead. Over a tree of inner equi-joins of base tables (each
// possibly filtered), one input L qualifies when:
//
//   - every aggregate argument binds in L (COUNT(*) binds anywhere);
//   - the one join that reads L joins it on columns that are all in the
//     group-by list, directly or through that join's equalities, and no other
//     join's keys name L;
//   - the partner columns of that join all belong to one table P and hold a
//     key of the rest of the tree: P's primary key, kept unique through inner
//     joins whose other side joins on its own key.
//
// Each L row then meets at most one partner row, and the partner columns of a
// group are fixed by L's join key, so every group of the aggregate is exactly
// one group of L' = Aggregate(L, L's join columns ∪ L's group-by columns):
// nothing is aggregated twice. The eager form is L', under the HAVING filter
// when that reads only L' output, joined to P first — (c ⋈ o) ⋈ l becomes
// c ⋈ (o ⋈ L') — and a projection restoring the aggregate's output. Residuals
// must bind where the rotation puts them.
//
// When L is PREF-placed on P by exactly that join's predicate and stores each
// tuple once, L' needs no exchange: by Definition 1 every L row with a
// partner sits on its partner's partition, so such a group is whole on one
// node, and L' keeps L's placement, so P ⋈ L' stays local. An orphan row (no
// partner) is placed round-robin or by hash, so an orphan group may be split
// across partitions; it has no partner either, so it dies at the join with
// P. The sums are marked (Prop.Orphans), and internal/check lets only a
// filter, a projection, a runtime filter or that join consume them.
//
// Summing first is not always cheaper: where PREF co-locates the joins, the
// lazy form ships nothing and L' may need its own exchange. The rewrite builds
// both forms on forked state and keeps the eager one only when its estimated
// simulated time — bytes shipped, busiest-node rows and exchanges, with the
// runtime filters the transfer pass would place (estimate.go) — is strictly
// lower; without statistics, only when it needs strictly fewer exchanges. A
// tie keeps the lazy one.
//
// The converse move, a two-phase aggregate's partial summed below the joins
// that only name its groups (a lookup on its key, replicated or broadcast),
// is lookup.go's; it runs after the rewrite proper, priced with the same
// timed.

// eagerLeaf is one input of a join tree and the join that reads it.
type eagerLeaf struct {
	node Node
	join *JoinNode
}

// eagerForm returns the logical eager form of agg, under the HAVING filter
// having (nil for none), or nil when no input of agg's join tree qualifies.
func (r *Rewriter) eagerForm(agg *AggregateNode, having BoolExpr) Node {
	var leaves []eagerLeaf
	if _, ok := agg.Child.(*JoinNode); !ok || !r.joinLeaves(agg.Child, nil, &leaves) {
		return nil
	}
	for _, l := range leaves {
		if e := r.eagerOver(agg, having, l, leaves); e != nil {
			return e
		}
	}
	return nil
}

// joinLeaves collects the inputs of a tree of inner equi-joins over filtered
// base tables, reporting false for any other shape.
func (r *Rewriter) joinLeaves(n Node, parent *JoinNode, out *[]eagerLeaf) bool {
	if j, ok := n.(*JoinNode); ok {
		return j.Type == Inner && len(j.LeftCols) > 0 &&
			r.joinLeaves(j.Left, j, out) && r.joinLeaves(j.Right, j, out)
	}
	if _, tbl, ok := baseScan(n); !ok || r.Schema.Table(tbl) == nil {
		return false
	}
	*out = append(*out, eagerLeaf{n, parent})
	return true
}

// eagerOver builds the eager form with l as the summed input, or returns nil
// when l does not qualify.
func (r *Rewriter) eagerOver(agg *AggregateNode, having BoolExpr, l eagerLeaf, leaves []eagerLeaf) Node {
	lcols := r.outCols(l.node)
	for _, a := range agg.Aggs {
		if a.Arg != nil && !allIn(a.Arg.AppendCols(nil), lcols) {
			return nil
		}
	}
	j := l.join
	lkeys, pkeys := j.LeftCols, j.RightCols
	if j.Right == l.node {
		lkeys, pkeys = j.RightCols, j.LeftCols
	}
	for i := range lkeys {
		if !slices.Contains(agg.GroupBy, lkeys[i]) && !slices.Contains(agg.GroupBy, pkeys[i]) {
			return nil
		}
	}
	if otherJoinReads(agg.Child, j, lcols) {
		return nil
	}
	var p Node
	for _, c := range leaves {
		if c != l && allIn(pkeys, r.outCols(c.node)) {
			p = c.node
		}
	}
	if p == nil || !slices.ContainsFunc(r.keys(agg.Child, l.node), func(k []string) bool { return allIn(k, pkeys) }) {
		return nil
	}

	groupBy := slices.Clone(lkeys)
	for _, g := range agg.GroupBy {
		if slices.Contains(lcols, g) && !slices.Contains(groupBy, g) {
			groupBy = append(groupBy, g)
		}
	}
	sums := &AggregateNode{Child: l.node, GroupBy: groupBy, Aggs: agg.Aggs}
	if alias, ok := r.prefOn(l.node, lkeys, p, pkeys); ok {
		if r.inPlace == nil {
			r.inPlace = map[*AggregateNode]string{}
		}
		r.inPlace[sums] = alias
	}
	var summed Node = sums
	if having != nil && allIn(having.AppendCols(nil), r.outCols(summed)) {
		summed, having = &FilterNode{Child: summed, Pred: having}, nil
	}
	first := &JoinNode{Left: p, Right: summed, Type: Inner, LeftCols: pkeys, RightCols: lkeys, Residual: j.Residual}
	tree := rotate(agg.Child, l.node, p, first)
	if !r.residualsBind(tree) {
		return nil
	}

	names := slices.Clone(agg.GroupBy)
	for _, a := range agg.Aggs {
		names = append(names, a.As)
	}
	exprs := make([]ValExpr, len(names))
	for i, name := range names {
		exprs[i] = Col(name)
	}
	var out Node = &ProjectNode{Child: tree, Exprs: exprs, Names: names}
	if having != nil {
		out = &FilterNode{Child: out, Pred: having}
	}
	return out
}

// prefOn returns the alias of the summed input l when l is a duplicate-free
// PREF table placed on the partner p by exactly the join predicate lkeys =
// pkeys: then every row of l with a partner sits on its partner's partition.
func (r *Rewriter) prefOn(l Node, lkeys []string, p Node, pkeys []string) (string, bool) {
	alias, tbl, _ := baseScan(l)
	palias, ptbl, _ := baseScan(p)
	ts := r.Cfg.Scheme(tbl)
	if ts == nil || ts.Method != partition.Pref || ts.RefTable != ptbl || !r.Cfg.DupFree(r.Schema, tbl) {
		return "", false
	}
	return alias, colPairsEqual(lkeys, pkeys,
		qualifyAll(alias, ts.Pred.ReferencingCols), qualifyAll(palias, ts.Pred.ReferencedCols))
}

// outCols lists the columns a logical node of an eager form produces: a
// filtered base table's, a join's both inputs', an aggregate's group-by and
// aggregate names. Nil for anything else.
func (r *Rewriter) outCols(n Node) []string {
	switch n := n.(type) {
	case *ScanNode:
		t := r.Schema.Table(n.Table)
		if t == nil {
			return nil
		}
		out := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			out[i] = Qualify(n.Alias, c.Name)
		}
		return out
	case *FilterNode:
		return r.outCols(n.Child)
	case *JoinNode:
		return append(r.outCols(n.Left), r.outCols(n.Right)...)
	case *AggregateNode:
		out := slices.Clone(n.GroupBy)
		for _, a := range n.Aggs {
			out = append(out, a.As)
		}
		return out
	}
	return nil
}

// keys returns column sets the join tree n, with the input skip left out,
// holds at most one row per: a base table's primary key, and through a join
// the keys of one input whenever the other joins on columns holding a key of
// its own.
func (r *Rewriter) keys(n, skip Node) [][]string {
	j, ok := n.(*JoinNode)
	if !ok {
		alias, tbl, _ := baseScan(n)
		if pk := r.Schema.Table(tbl).PK; len(pk) > 0 {
			return [][]string{qualifyAll(alias, pk)}
		}
		return nil
	}
	switch skip {
	case j.Left:
		return r.keys(j.Right, skip)
	case j.Right:
		return r.keys(j.Left, skip)
	}
	lk, rk := r.keys(j.Left, skip), r.keys(j.Right, skip)
	var out [][]string
	if slices.ContainsFunc(rk, func(k []string) bool { return allIn(k, j.RightCols) }) {
		out = append(out, lk...)
	}
	if slices.ContainsFunc(lk, func(k []string) bool { return allIn(k, j.LeftCols) }) {
		out = append(out, rk...)
	}
	return out
}

// otherJoinReads reports whether a join of the tree n other than j has a key
// among cols.
func otherJoinReads(n Node, j *JoinNode, cols []string) bool {
	x, ok := n.(*JoinNode)
	if !ok {
		return false
	}
	if x != j && (slices.ContainsFunc(x.LeftCols, func(c string) bool { return slices.Contains(cols, c) }) ||
		slices.ContainsFunc(x.RightCols, func(c string) bool { return slices.Contains(cols, c) })) {
		return true
	}
	return otherJoinReads(x.Left, j, cols) || otherJoinReads(x.Right, j, cols)
}

// rotate rebuilds the join tree n without the input l, whose join collapses
// to its other input, and with the input p replaced by first.
func rotate(n, l, p, first Node) Node {
	if n == p {
		return first
	}
	j, ok := n.(*JoinNode)
	if !ok {
		return n
	}
	switch l {
	case j.Left:
		return rotate(j.Right, l, p, first)
	case j.Right:
		return rotate(j.Left, l, p, first)
	}
	return &JoinNode{
		Left: rotate(j.Left, l, p, first), Right: rotate(j.Right, l, p, first), Type: j.Type,
		LeftCols: j.LeftCols, RightCols: j.RightCols, Residual: j.Residual,
	}
}

// residualsBind reports whether every join residual of the tree n reads only
// its own inputs' columns.
func (r *Rewriter) residualsBind(n Node) bool {
	j, ok := n.(*JoinNode)
	if !ok {
		return true
	}
	if j.Residual != nil && !allIn(j.Residual.AppendCols(nil), r.outCols(j)) {
		return false
	}
	return r.residualsBind(j.Left) && r.residualsBind(j.Right)
}

// cheaperForm rewrites the lazy form of the logical node n (by lazy) and
// its logical eager form on forked rewriter state, keeps the eager one only
// when it is cheaper, and takes over the kept form's annotations.
func (r *Rewriter) cheaperForm(n, eager Node, lazy func(*Rewriter) (Node, *Prop, Schema, error)) (Node, *Prop, Schema, error) {
	lf := r.fork()
	ln, p, s, err := lazy(lf)
	if err != nil {
		return nil, nil, nil, err
	}
	ef := r.fork()
	if r.refs != nil {
		// The eager form reads its own columns in place of n's.
		ef.refs = maps.Clone(r.refs)
		for c, k := range refsOf(n) {
			ef.refs[c] -= k
		}
		for c, k := range refsOf(eager) {
			ef.refs[c] += k
		}
	}
	en, ep, es, err := ef.rewrite(eager)
	if err != nil {
		return nil, nil, nil, err
	}
	win := lf
	if r.Opt.Stats != nil && ef.timed(en) < lf.timed(ln) ||
		r.Opt.Stats == nil && exchanges(en) < exchanges(ln) {
		win, ln, p, s = ef, en, ep, es
	}
	maps.Copy(r.out.Schemas, win.out.Schemas)
	maps.Copy(r.out.Props, win.out.Props)
	r.aliases = win.aliases
	return ln, p, s, nil
}

// timed estimates the simulated time of the physical subtree n as it will
// run, with the runtime filters the transfer pass places in it: it places
// them, prices the subtree (cost) and takes them out again. The pass places
// the kept form's filters once, over the whole plan.
func (r *Rewriter) timed(n Node) time.Duration {
	placed := r.placeTransfers(n)
	t := r.cost(n).time()
	for i := len(placed) - 1; i >= 0; i-- {
		rf := (*placed[i]).(*RuntimeFilterNode)
		rf.From.Source = NoSide
		*placed[i] = rf.Child
		delete(r.out.Schemas, rf)
		delete(r.out.Props, rf)
	}
	clear(r.memo)
	clear(r.cols)
	return t
}

// fork returns a rewriter over the same inputs whose annotations start empty
// and whose alias set is a copy of r's. Estimates are per node, so the forks
// share r's.
func (r *Rewriter) fork() *Rewriter {
	return &Rewriter{
		Schema: r.Schema, Cfg: r.Cfg, Opt: r.Opt,
		out:     &Rewritten{Schemas: map[Node]Schema{}, Props: map[Node]*Prop{}, Catalog: r.Schema, Cfg: r.Cfg},
		aliases: maps.Clone(r.aliases),
		memo:    r.memo, cols: r.cols, origin: r.origin, refs: r.refs, inPlace: r.inPlace, covers: r.covers,
		rootAgg: r.rootAgg,
	}
}

// exchanges counts the operators of the subtree at n that move rows between
// partitions: repartitions, broadcasts and value distincts, the exchanges
// CostModel charges a start for. Gathers start none and are left out.
func exchanges(n Node) int {
	c := 0
	switch n.(type) {
	case *RepartitionNode, *BroadcastNode, *DistinctByValueNode:
		c++
	}
	for _, ch := range n.Children() {
		c += exchanges(ch)
	}
	return c
}
