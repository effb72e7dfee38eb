package plan

import (
	"slices"
	"time"

	"pref/internal/partition"
)

// Replicated joins sink.
//
// The rewrite keeps each query's join order, and a query often joins a small
// replicated table (nation, region) last, so every row the joins below it
// produce probes that table. Every node holds all of a replicated table: a
// join with one needs no exchange wherever it runs, and it can run below
// the joins that do not read what it adds.
//
// With statistics the rewrite moves such joins down. Take an inner
// equi-join J of an input X and a right input D, where D is a base table
// the design replicates, possibly filtered, and X is an inner equi-join one
// of whose inputs, A, holds all of J's keys. J(X(A, B), D) becomes
// X(J′(A, D), B), and the move repeats into A while A is such a join. J's
// residual conjuncts that bind in A and D go down with J′; the rest are
// AND-ed onto X's residual. Every operator keeps its placement, since a join
// with a replicated table keeps its other input's, so no exchange is added,
// removed or widened, and none is crossed: D only ever moves from a join to
// that join's input join. Under a design that hashes the small tables they
// arrive broadcast, and a broadcast is an exchange, which a join never
// crosses here; there the partial aggregate above such joins may move below
// them instead (lookup.go), a pass that runs after this one.
//
// Each depth the move reaches is priced as the eager gate prices its two
// forms (eager.go's timed, with the runtime filters the transfer pass would
// place), and J goes to the cheapest, when that is strictly cheaper than
// where it is. The estimator counts no PREF duplicate, so the move never
// goes into an input that carries duplicates its join drops (Prop.Dup):
// each copy there would be probed too. Nor into sums whose orphan groups
// may be split (Prop.Orphans), which only their own PREF join may read.
// The pass runs after the rewrite proper, bottom-up, and builds new joins
// wherever it moves one. A moved join's output holds the same columns in
// another order, so the operators above it that pass columns on in order
// record their schemas again, and it leaves alone the joins whose column
// order is read above them: the result's, and a top-k's, whose ties are
// broken by whole rows. Without statistics nothing moves.

// sinkJoins sinks the joins with a replicated table in the subtree at slot,
// bottom-up. ordered says whether the column order of slot's output is read
// above it; sinkJoins reports whether that order changed.
func (r *Rewriter) sinkJoins(slot *Node, ordered bool) bool {
	below, names := ordered, false
	switch (*slot).(type) {
	case *ProjectNode, *AggregateNode, *PartialAggNode, *FinalAggNode:
		below, names = false, true
	case *TopKNode, *DistinctByValueNode:
		below = true
	}
	moved := false
	for _, in := range inputSlots(*slot) {
		if in != nil && r.sinkJoins(in, below) {
			moved = true
		}
	}
	if moved && !names {
		// The operator passes its inputs' columns on in their order.
		n := *slot
		sch := r.out.Schemas[n.Children()[0]]
		if j, ok := n.(*JoinNode); ok && j.Type != Semi && j.Type != Anti {
			sch = sch.Concat(r.out.Schemas[j.Right])
		}
		r.out.Schemas[n] = sch
	}
	for !ordered && r.sink(slot) {
		moved = true
	}
	return moved && !names
}

// sink moves the join at slot to the cheapest depth the rule above allows,
// and reports whether that moved it.
func (r *Rewriter) sink(slot *Node) bool {
	j, ok := (*slot).(*JoinNode)
	if !ok || !innerEqui(j) || !r.replicatedBase(j.Right) {
		return false
	}
	var path []*JoinNode
	var sides []Side
	for x := j.Left; ; {
		xj, ok := x.(*JoinNode)
		if !ok || !innerEqui(xj) {
			break
		}
		side := r.holding(xj, j.LeftCols)
		if side == NoSide {
			break
		}
		if a := r.out.Props[xj.input(side)]; a.Orphans != "" || a.Dup() && !r.out.Props[xj].Dup() {
			break
		}
		path, sides = append(path, xj), append(sides, side)
		x = xj.input(side)
	}
	if len(path) == 0 {
		return false
	}
	best := r.cheapest(j, len(path), func(k int) (Node, []Node) {
		return r.sunk(j, path[:k], sides[:k])
	}, r.timed, false)
	if best == nil {
		return false
	}
	if r.origin != nil {
		r.origin[best] = r.origin[j]
	}
	*slot = best
	return true
}

// sunk builds j's join moved below the joins of path, each time into the
// input sides names, and returns the new top and every node it built.
func (r *Rewriter) sunk(j *JoinNode, path []*JoinNode, sides []Side) (Node, []Node) {
	d := j.Right
	var down []BoolExpr
	if j.Residual != nil {
		down = conjuncts(j.Residual)
	}
	lifted := make([][]BoolExpr, len(path))
	for i, x := range path {
		in := append(r.out.Schemas[x.input(sides[i])].Names(), r.out.Schemas[d].Names()...)
		var deeper []BoolExpr
		for _, c := range down {
			if allIn(c.AppendCols(nil), in) {
				deeper = append(deeper, c)
			} else {
				lifted[i] = append(lifted[i], c)
			}
		}
		down = deeper
	}
	a := path[len(path)-1].input(sides[len(sides)-1])
	jd := &JoinNode{Left: a, Right: d, Type: Inner, LeftCols: j.LeftCols, RightCols: j.RightCols, Residual: and(down...)}
	r.note(jd, r.out.Schemas[a].Concat(r.out.Schemas[d]), r.replicatedProp(jd, r.out.Props[a], r.out.Props[d]))
	var n Node = jd
	made := []Node{n}
	for i := len(path) - 1; i >= 0; i-- {
		x := path[i]
		nx := &JoinNode{Left: x.Left, Right: x.Right, Type: Inner, LeftCols: x.LeftCols, RightCols: x.RightCols,
			Residual: and(append([]BoolExpr{x.Residual}, lifted[i]...)...)}
		if sides[i] == LeftSide {
			nx.Left = n
		} else {
			nx.Right = n
		}
		// X keeps its placement; its output gains D's columns and J's
		// equalities.
		p := r.out.Props[x].Clone()
		p.Equiv = r.joinEquiv(nx, r.out.Props[nx.Left], r.out.Props[nx.Right])
		r.note(nx, r.out.Schemas[nx.Left].Concat(r.out.Schemas[nx.Right]), p)
		made = append(made, nx)
		n = nx
	}
	return n, made
}

// cheapest returns the cheapest of the forms build(1) … build(depth), each
// priced by at, when it is strictly cheaper than the form in place, at(in),
// or, with ties, no dearer; otherwise nil. With ties a tie goes to the
// deeper form. A depth build declines (a nil form) is not priced, and the
// form in place is priced only once a depth is. The nodes of every form not
// kept are forgotten.
func (r *Rewriter) cheapest(in Node, depth int, build func(k int) (Node, []Node), at func(Node) time.Duration, ties bool) Node {
	var best Node
	var kept []Node
	var cost time.Duration
	priced := false
	for k := 1; k <= depth; k++ {
		top, made := build(k)
		if top == nil {
			continue
		}
		if !priced {
			cost, priced = at(in), true
		}
		if t := at(top); t < cost || ties && t == cost {
			r.forget(kept)
			best, kept, cost = top, made, t
		} else {
			r.forget(made)
		}
	}
	return best
}

// forget drops the annotations of nodes built for a form not kept.
func (r *Rewriter) forget(nodes []Node) {
	for _, n := range nodes {
		delete(r.out.Schemas, n)
		delete(r.out.Props, n)
		delete(r.memo, n)
	}
	for k := range r.cols {
		if slices.Contains(nodes, k.n) {
			delete(r.cols, k)
		}
	}
}

// replicatedBase reports whether n is a base table the design replicates,
// possibly filtered.
func (r *Rewriter) replicatedBase(n Node) bool {
	_, tbl, ok := baseScan(n)
	ts := r.Cfg.Scheme(tbl)
	return ok && ts != nil && ts.Method == partition.Replicated
}

// holding returns the input of x whose output holds every column of cols,
// or NoSide.
func (r *Rewriter) holding(x *JoinNode, cols []string) Side {
	for _, s := range []Side{LeftSide, RightSide} {
		sch := r.out.Schemas[x.input(s)]
		if !slices.ContainsFunc(cols, func(c string) bool { return sch.Index(c) < 0 }) {
			return s
		}
	}
	return NoSide
}

// input returns the join's input on side s.
func (n *JoinNode) input(s Side) Node {
	if s == RightSide {
		return n.Right
	}
	return n.Left
}

func innerEqui(j *JoinNode) bool { return j.Type == Inner && len(j.LeftCols) > 0 }

// and conjoins the non-nil predicates of ps: nil for none, the one for one.
func and(ps ...BoolExpr) BoolExpr {
	ps = slices.DeleteFunc(ps, func(p BoolExpr) bool { return p == nil })
	switch len(ps) {
	case 0:
		return nil
	case 1:
		return ps[0]
	}
	return And(ps...)
}

// inputSlots returns where n holds its inputs: none, one, or a join's two.
func inputSlots(n Node) [2]*Node {
	switch n := n.(type) {
	case *JoinNode:
		return [2]*Node{&n.Left, &n.Right}
	case *FilterNode:
		return [2]*Node{&n.Child}
	case *ProjectNode:
		return [2]*Node{&n.Child}
	case *AggregateNode:
		return [2]*Node{&n.Child}
	case *TopKNode:
		return [2]*Node{&n.Child}
	case *RepartitionNode:
		return [2]*Node{&n.Child}
	case *BroadcastNode:
		return [2]*Node{&n.Child}
	case *DistinctPrefNode:
		return [2]*Node{&n.Child}
	case *DistinctByValueNode:
		return [2]*Node{&n.Child}
	case *RuntimeFilterNode:
		return [2]*Node{&n.Child}
	case *GatherNode:
		return [2]*Node{&n.Child}
	case *PartialAggNode:
		return [2]*Node{&n.Child}
	case *FinalAggNode:
		return [2]*Node{&n.Child}
	}
	return [2]*Node{}
}
