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
// per plan, and runs before column pruning, on the full schemas.
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
// Two cases read the rewrite's statistics (estimate.go). A selective input
// the rewrite broadcast is the source on either side, the right one of an
// Inner or Semi join only: it may then filter an input with no exchange
// below it, which saves per-node rows rather than bytes, so with statistics
// it must be estimated to drop some. And a broadcast target, small by
// choice, is filtered only when the rows it is estimated to drop save more
// than the transfer costs.
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
	in := func(n Node) transferInput {
		_, bcast := n.(*BroadcastNode)
		return transferInput{ex: hasExchange(n), bcast: bcast, sel: selective(n)}
	}
	source := r.sourceOf(j, j.Left, j.Right, in(j.Left), in(j.Right))
	if source == NoSide {
		return
	}
	target, key := &j.Right, j.RightCols[0]
	if source == RightSide {
		target, key = &j.Left, j.LeftCols[0]
	}
	j.Source = source
	slot := target
	for next := r.passDown(*slot, key); next != nil; next = r.passDown(*slot, key) {
		slot = next
	}
	f := &RuntimeFilterNode{Child: *slot, Col: key, From: j}
	r.note(f, r.out.Schemas[*slot], r.out.Props[*slot].Clone())
	*slot = f
	clear(r.memo) // the estimates above the filter no longer hold
}

// transferInput is what the transfer rule reads of one input of a join:
// whether it has an exchange below it, whether it is a broadcast, and
// whether it is selective.
type transferInput struct{ ex, bcast, sel bool }

// sourceOf applies the rule above to a join j whose inputs, left and right
// before any exchange j adds, look like l and rt; it returns the source
// side, or NoSide when no filter fires. The rewrite's estimator asks it of
// the inputs a join choice would build.
func (r *Rewriter) sourceOf(j *JoinNode, left, right Node, l, rt transferInput) Side {
	if len(j.LeftCols) != 1 {
		return NoSide
	}
	var source Side
	var target transferInput
	switch {
	case rt.bcast && rt.sel && (j.Type == Inner || j.Type == Semi):
		source, target = RightSide, l
	case l.bcast && l.sel:
		source, target = LeftSide, rt
	default:
		src := l
		source, target = LeftSide, rt
		if (j.Type == Inner || j.Type == Semi) && !rt.ex && l.ex {
			src, source, target = rt, RightSide, l
		}
		if !target.ex || !src.sel || target.bcast && !r.dropsEnough(j, left, right, source) {
			return NoSide
		}
		return source
	}
	// A broadcast source over a target that ships nothing saves only the
	// rows the filter drops: with statistics, it must be estimated to drop
	// some.
	if !target.ex && r.Opt.Stats != nil && r.containAt(j, left, right, source) >= 1 {
		return NoSide
	}
	return source
}

// dropsEnough reports whether the filter source puts on j's broadcast
// target is worth its transfer. A broadcast is chosen for being small, and
// each row it drops saves its n−1 copies and their per-node work: with
// statistics, those must be estimated to take longer than the transfer's
// startup.
func (r *Rewriter) dropsEnough(j *JoinNode, left, right Node, source Side) bool {
	if r.Opt.Stats == nil {
		return true
	}
	target := right
	if source == RightSide {
		target = left
	}
	parts := float64(r.Cfg.NumPartitions)
	drop := r.rows(target) * (1 - r.containAt(j, left, right, source))
	saved := price{bytes: drop * 8 * r.shipWidth(target) * (parts - 1), nodeRows: 2 * drop}
	return saved.time() > price{exchanges: 1}.time()
}

// containAt estimates the share of the target input's keys j's source
// input holds.
func (r *Rewriter) containAt(j *JoinNode, left, right Node, source Side) float64 {
	if source == RightSide {
		return r.contain(right, j.RightCols, left, j.LeftCols)
	}
	return r.contain(left, j.LeftCols, right, j.RightCols)
}

// filtered estimates the rows j's inputs keep once the runtime filter the
// rule would fire on inputs looking like l and rt has run, and the transfers
// that takes.
func (r *Rewriter) filtered(j *JoinNode, left, right Node, l, rt transferInput) (float64, float64, int) {
	lr, rr := r.rows(left), r.rows(right)
	switch source := r.sourceOf(j, left, right, l, rt); source {
	case LeftSide:
		return lr, rr * r.containAt(j, left, right, source), 1
	case RightSide:
		return lr * r.containAt(j, left, right, source), rr, 1
	}
	return lr, rr, 0
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
