package plan

import (
	"slices"
	"time"
)

// Partial aggregates below lookup joins.
//
// A grouped aggregate the placement does not cover runs in two phases
// (lazyAggregate): a partial aggregate sums each partition's rows per group,
// one exchange ships the states, and a final aggregate merges them. The
// partial runs above every join of the aggregate's input, so a join that
// only names a group — Q7 joins a 25-row nation table twice so that it can
// group by the two nation names — probes every input row before the partial
// cuts them to a few hundred states.
//
// This is eager aggregation (eager.go) from the other side: the partial
// moves below such joins and the joins run on its states. A lookup is an
// input of an inner equi-join that is a base table, possibly filtered, that
// every node holds whole — the design replicates it, or the rewrite
// broadcasts it — carrying no PREF duplicate, and joined on columns holding
// its primary key. Over the inner equi-joins at the top of the partial's
// input (under the projection that computes its arguments, if any) whose
// other input is a lookup, the partial may move below the top k when
//
//   - every aggregate argument reads only the input Y below the k joins;
//   - a column of their lookups is read above only as a group-by column, or
//     as a key or residual column of a higher of the k joins;
//   - Y carries no PREF duplicate, no split sums (Prop.Orphans), and is not
//     replicated.
//
// The moved partial groups Y by the aggregate's group-by columns Y holds
// plus Y's key columns the k joins read; a join's residual may read only
// those and lookup columns. The joins' matches for a Y row then depend only
// on its group, so summing a group first and joining its state adds up what
// joining each row first would: every group of the aggregate is the merge of
// the states joined into it. The joins keep their lookups, Broadcast
// subtrees unchanged, and the one exchange above — the same Repartition by
// the group-by, or Gather — ships the group-by and state columns it ships
// today, since the final aggregate reads nothing else (column pruning drops
// the joins' keys below it). No exchange is added, removed or widened, and
// no more rows cross it: a Y key column joins the group-by only where the
// aggregate also groups by columns of that key's lookup that tell its rows
// apart (named), so each state's group names one group of the aggregate.
//
// The pass runs with statistics only, after the replicated-join sink
// (sink.go), on each two-phase aggregate as it stands: on a design that
// replicates nation the sink may already have moved the nation joins below
// the joins they followed, and the form priced is the one that would run.
// Each depth k is priced as the eager gate prices its forms (timed, with the
// runtime filters the transfer pass would place), with the final aggregate
// above it, whose exchange the estimator prices at what the merge reads
// (shipped); the partial moves to the cheapest depth (cheapest, as the sink
// picks its), when that is strictly cheaper than where it is. Without
// statistics nothing moves. internal/check re-proves every moved partial.

// lowerPartials moves the partial of each two-phase grouped aggregate in the
// subtree at n below the lookup joins at the top of its input, where the
// rule above allows and the move is priced strictly cheaper.
func (r *Rewriter) lowerPartials(n Node) {
	for _, c := range n.Children() {
		r.lowerPartials(c)
	}
	fin, ok := n.(*FinalAggNode)
	if !ok || len(fin.GroupBy) == 0 {
		return
	}
	var slot *Node
	switch ex := fin.Child.(type) {
	case *RepartitionNode:
		slot = &ex.Child
	case *GatherNode:
		slot = &ex.Child
	default:
		return
	}
	p, ok := (*slot).(*PartialAggNode)
	if !ok {
		return
	}
	proj, chain, sides := r.lookupChain(p.Child)
	if len(chain) == 0 {
		return
	}
	ex := fin.Child
	at := func(x Node) time.Duration {
		*slot, r.out.Schemas[ex] = x, r.out.Schemas[x]
		return r.timed(fin)
	}
	best := r.cheapest(p, len(chain), func(k int) (Node, []Node) {
		return r.lowered(p, proj, chain[:k], sides[:k])
	}, at)
	if best == nil {
		best = p
	}
	*slot, r.out.Schemas[ex] = best, r.out.Schemas[best]
}

// lookupChain returns the inner equi-joins at the top of n, under the
// projection proj if n is one, that each join a lookup input on its key:
// top first, with the side its lookup sits on.
func (r *Rewriter) lookupChain(n Node) (proj *ProjectNode, chain []*JoinNode, sides []Side) {
	if pr, ok := n.(*ProjectNode); ok {
		proj, n = pr, pr.Child
	}
	for {
		j, ok := n.(*JoinNode)
		if !ok || !innerEqui(j) {
			return proj, chain, sides
		}
		side := NoSide
		switch {
		case r.isLookup(j.Right, j.RightCols) && !r.out.Props[j.Left].Repl:
			side = RightSide
		case r.isLookup(j.Left, j.LeftCols) && !r.out.Props[j.Right].Repl:
			side = LeftSide
		default:
			return proj, chain, sides
		}
		chain, sides = append(chain, j), append(sides, side)
		n = j.input(other(side))
	}
}

// isLookup reports whether n, an input of a join on its columns cols, is a
// lookup: a base table, possibly filtered, every node holds whole, that
// carries no PREF duplicate and is joined on columns holding its primary key.
func (r *Rewriter) isLookup(n Node, cols []string) bool {
	x := n
	if b, ok := n.(*BroadcastNode); ok {
		x = b.Child
	}
	alias, tbl, ok := baseScan(x)
	if !ok {
		return false
	}
	p, t := r.out.Props[n], r.Schema.Table(tbl)
	return p.Repl && !p.Dup() && t != nil && allIn(qualifyAll(alias, t.PK), cols)
}

// named reports whether groupBy holds columns of the lookup n that tell its
// rows apart: its primary key, or a column whose statistics count a value
// per row of its table.
func (r *Rewriter) named(n Node, groupBy []string) bool {
	if b, ok := n.(*BroadcastNode); ok {
		n = b.Child
	}
	alias, tbl, _ := baseScan(n)
	t, ts := r.Schema.Table(tbl), r.Opt.Stats.Tables[tbl]
	if allIn(qualifyAll(alias, t.PK), groupBy) {
		return true
	}
	for i, c := range t.Columns {
		if ts != nil && slices.Contains(groupBy, Qualify(alias, c.Name)) && ts.Cols[i].NDV >= ts.Rows {
			return true
		}
	}
	return false
}

// other is the side opposite s.
func other(s Side) Side {
	if s == LeftSide {
		return RightSide
	}
	return LeftSide
}

// lowered builds the partial p moved below the joins of chain, whose
// lookups sit on sides, and the joins rebuilt over its states, under the
// projection proj of p's input if it has one. It returns the top join and
// every node it built, or nil when the rule does not allow the move.
func (r *Rewriter) lowered(p *PartialAggNode, proj *ProjectNode, chain []*JoinNode, sides []Side) (Node, []Node) {
	last := len(chain) - 1
	y := chain[last].input(other(sides[last]))
	ysch, yp := r.out.Schemas[y], r.out.Props[y]
	if yp.Dup() || yp.Orphans != "" || yp.Repl {
		return nil, nil
	}
	looked := map[string]bool{} // the lookups' columns
	for i, j := range chain {
		for _, f := range r.out.Schemas[j.input(sides[i])] {
			looked[f.Name] = true
		}
	}
	inY := func(c string) bool { return ysch.Index(c) >= 0 }

	// What the partial reads of its input: Y's columns, or with a
	// projection, the outputs computed from them alone.
	var exprs []ValExpr
	var names []string
	fact := inY
	if proj != nil {
		for i, e := range proj.Exprs {
			if cols := e.AppendCols(nil); len(cols) > 0 && !slices.ContainsFunc(cols, func(c string) bool { return !inY(c) }) {
				exprs, names = append(exprs, e), append(names, proj.Names[i])
			}
		}
		fact = func(c string) bool { return slices.Contains(names, c) }
	}
	// itself reports whether the projection, if any, outputs column c as c.
	itself := func(c string) bool {
		if proj == nil {
			return true
		}
		i := slices.Index(proj.Names, c)
		if i < 0 {
			return false
		}
		src, ok := ColName(proj.Exprs[i])
		return ok && src == c
	}
	for _, a := range p.Aggs {
		if a.Arg != nil && slices.ContainsFunc(a.Arg.AppendCols(nil), func(c string) bool { return !fact(c) }) {
			return nil, nil
		}
	}
	var groupBy []string
	for _, g := range p.GroupBy {
		switch {
		case fact(g):
			groupBy = append(groupBy, g)
		case !looked[g] || !itself(g):
			return nil, nil
		}
	}
	// Y's key columns the joins read join the group-by, the lowest join's
	// first, each only where its lookup's group-by columns tell the lookup's
	// rows apart: then a state's group names one group of the aggregate.
	for i := last; i >= 0; i-- {
		j := chain[i]
		keys := j.LeftCols
		if sides[i] == LeftSide {
			keys = j.RightCols
		}
		for _, c := range keys {
			switch {
			case looked[c] || slices.Contains(groupBy, c):
			case !inY(c) || !r.named(j.input(sides[i]), p.GroupBy):
				return nil, nil
			case proj == nil || fact(c) && itself(c):
				groupBy = append(groupBy, c)
			case fact(c):
				return nil, nil // a computed output shadows it
			default:
				groupBy = append(groupBy, c)
				exprs, names = append(exprs, Col(c)), append(names, c)
			}
		}
		if j.Residual != nil && slices.ContainsFunc(j.Residual.AppendCols(nil), func(c string) bool {
			return !looked[c] && !slices.Contains(groupBy, c)
		}) {
			return nil, nil
		}
	}

	var made []Node
	in, insch := y, ysch
	if proj != nil {
		insch = make(Schema, len(exprs))
		for i, e := range exprs {
			insch[i] = Field{Name: names[i], Kind: e.Kind(ysch)}
		}
		in, _, _ = r.note(&ProjectNode{Child: y, Exprs: exprs, Names: names}, insch, yp)
		made = append(made, in)
	}
	var cur Node = &PartialAggNode{Child: in, GroupBy: groupBy, Aggs: p.Aggs}
	r.note(cur, partialSchema(groupBy, p.Aggs, insch), &Prop{Parts: yp.Parts})
	made = append(made, cur)
	for i := last; i >= 0; i-- {
		j := chain[i]
		nj := &JoinNode{Left: j.Left, Right: j.Right, Type: Inner, LeftCols: j.LeftCols, RightCols: j.RightCols, Residual: j.Residual}
		if sides[i] == LeftSide {
			nj.Right = cur
		} else {
			nj.Left = cur
		}
		r.note(nj, r.out.Schemas[nj.Left].Concat(r.out.Schemas[nj.Right]),
			r.replicatedProp(nj, r.out.Props[nj.Left], r.out.Props[nj.Right]))
		made = append(made, nj)
		cur = nj
	}
	return cur, made
}
