package plan

import "slices"

// Runtime join filters.
//
// A misaligned equi-join ships both of its inputs, and the join above often
// throws most of the shipped rows away. When one input is selective, the
// engine can run it first, build a Bloom filter of its join keys on every
// partition, ship the filters — about ten bits per key — to every node, and
// drop the other input's rows that cannot match before they reach an
// exchange ("Predicate Transfer", PAPERS.md). This pass decides where, once
// per plan and statically: it reads no sizes and no options, and runs
// before column pruning, on the full schemas.
//
// A join fires a transfer when it is an equi-join on one key column, its
// target input has an exchange below it (each dropped row saves shipping)
// and its source input is selective: it holds a Filter, a Semi or Anti
// join, or a RuntimeFilter an enclosing join placed. The source is the left
// input — today's evaluation order — except for an Inner or Semi join whose
// right input has no exchange below it while its left does; that right input
// then runs first. Anti and LeftOuter joins only ever target their right
// input: dropping a left row would change their output.
//
// The filter goes as deep into the target as the key column passes
// unchanged (passDown), which in practice is directly above a base-table
// scan, below its filters. Joins are visited top-down, so a filter placed
// by an enclosing join already makes its target selective when the joins
// below it are visited: filters chain from join to join down the tree.

// placeTransfers visits the joins of the subtree at n top-down.
func (r *Rewriter) placeTransfers(n Node) {
	if j, ok := n.(*JoinNode); ok {
		r.transfer(j)
	}
	for _, c := range n.Children() {
		r.placeTransfers(c)
	}
}

// transfer fires j's runtime filter where the rule above allows, recording
// its source on j and placing a RuntimeFilterNode in its target.
func (r *Rewriter) transfer(j *JoinNode) {
	if len(j.LeftCols) != 1 {
		return
	}
	src, source, target, key := j.Left, LeftSide, &j.Right, j.RightCols[0]
	if (j.Type == Inner || j.Type == Semi) && !hasExchange(j.Right) && hasExchange(j.Left) {
		src, source, target, key = j.Right, RightSide, &j.Left, j.LeftCols[0]
	}
	if !hasExchange(*target) || !selective(src) {
		return
	}
	j.Source = source
	slot := target
	for next := r.passDown(*slot, key); next != nil; next = r.passDown(*slot, key) {
		slot = next
	}
	f := &RuntimeFilterNode{Child: *slot, Col: key, From: j}
	r.note(f, r.out.Schemas[*slot], r.out.Props[*slot].Clone())
	*slot = f
}

// passDown returns the slot of n's input that carries col up through n
// unchanged, so a filter on col may sit below n; nil where the walk stops.
// Filters pass, so over a base table the walk ends at the scan: the Bloom
// probe, cheaper per row than most predicates, runs first.
func (r *Rewriter) passDown(n Node, col string) *Node {
	switch n := n.(type) {
	case *FilterNode:
		return &n.Child
	case *RuntimeFilterNode:
		return &n.Child
	case *DistinctPrefNode:
		return &n.Child
	case *RepartitionNode:
		return &n.Child
	case *BroadcastNode:
		return &n.Child
	case *ProjectNode:
		for i, name := range n.Names {
			if c, ok := ColName(n.Exprs[i]); ok && name == col && c == col {
				return &n.Child
			}
		}
	case *JoinNode:
		if r.out.Schemas[n.Left].Index(col) >= 0 {
			return &n.Left
		}
		if n.Type == Inner && r.out.Schemas[n.Right].Index(col) >= 0 {
			return &n.Right
		}
	case *AggregateNode:
		if slices.Contains(n.GroupBy, col) {
			return &n.Child
		}
	case *PartialAggNode:
		if slices.Contains(n.GroupBy, col) {
			return &n.Child
		}
	case *FinalAggNode:
		if slices.Contains(n.GroupBy, col) {
			return &n.Child
		}
	}
	return nil
}

// hasExchange reports whether the subtree at n moves rows between nodes.
func hasExchange(n Node) bool {
	switch n.(type) {
	case *RepartitionNode, *BroadcastNode, *GatherNode, *DistinctByValueNode:
		return true
	}
	for _, c := range n.Children() {
		if hasExchange(c) {
			return true
		}
	}
	return false
}

// selective reports whether the subtree at n drops rows by a predicate: a
// filter, a runtime filter, or a semi or anti join.
func selective(n Node) bool {
	switch n := n.(type) {
	case *FilterNode, *RuntimeFilterNode:
		return true
	case *JoinNode:
		if n.Type == Semi || n.Type == Anti {
			return true
		}
	}
	for _, c := range n.Children() {
		if selective(c) {
			return true
		}
	}
	return false
}
