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
// per plan, and runs before column pruning, on the full schemas. (The eager
// aggregation gate also runs it over each form it prices, and takes the
// filters out again: eager.go's timed.)
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
// A filter is local when it ships nothing: node p probes only the filter of
// its own source partition. With statistics, two kinds are. One has a
// source every partition of which holds all of its rows (a broadcast, or a
// replicated input no local filter has thinned), so any one filter holds
// every key, wherever the target's rows travel. The other fires where the
// rule above does not, on a join whose target reaches it through no
// exchange, as on every join PREF co-locates: partition p's target rows meet
// only partition p's source rows there. Its source is selective, and of an
// Inner or Semi join's two inputs the one whose filter gains more; it fires
// only when the estimator expects it to save per-node rows (localSlot). A
// local filter pays no transfer, only the rows it keeps, as a Filter does.
// Without statistics no filter is local, and plans stay as they were.
//
// A filter goes as deep into the target as the key column passes unchanged
// (passDown), which in practice is directly above a base-table scan, below
// its filters — but for one the local rule fired, which goes where the
// estimator expects it to save the most. Joins are visited top-down, so a
// filter placed by an enclosing join already makes its target selective
// when the joins below it are visited: filters chain from join to join down
// the tree.

// placeTransfers visits the joins of the subtree at n top-down and returns
// the slots it placed a filter in, in placement order.
func (r *Rewriter) placeTransfers(n Node) []*Node {
	var placed []*Node
	if j, ok := n.(*JoinNode); ok {
		if slot := r.transfer(j); slot != nil {
			placed = append(placed, slot)
		}
	}
	for _, c := range n.Children() {
		placed = append(placed, r.placeTransfers(c)...)
	}
	return placed
}

// transfer fires j's runtime filter where the rule above allows, recording
// its source on j and placing a RuntimeFilterNode in its target, and returns
// the slot it filled, or nil.
func (r *Rewriter) transfer(j *JoinNode) *Node {
	in := func(n Node) transferInput {
		_, bcast := n.(*BroadcastNode)
		return r.input(n, false, bcast)
	}
	f := r.fire(j, j.Left, j.Right, in(j.Left), in(j.Right))
	if f.source == NoSide {
		return nil
	}
	target, key := &j.Right, j.RightCols[0]
	if f.source == RightSide {
		target, key = &j.Left, j.LeftCols[0]
	}
	j.Source = f.source
	slot := r.filterSlot(target, key)
	if f.gated {
		slot, _ = r.localSlot(target, key, r.containAt(j, j.Left, j.Right, f.source))
	}
	rf := &RuntimeFilterNode{Child: *slot, Col: key, From: j, Local: f.local}
	r.note(rf, r.out.Schemas[*slot], r.out.Props[*slot])
	*slot = rf
	clear(r.memo) // the estimates above the filter no longer hold
	return slot
}

// filterSlot follows passDown from slot as deep as the key column col
// passes unchanged, and returns where a filter on col goes.
func (r *Rewriter) filterSlot(slot *Node, col string) *Node {
	for next := r.passDown(*slot, col); next != nil; next = r.passDown(*slot, col) {
		slot = next
	}
	return slot
}

// localSlot returns where, from the join input slot target down, a local
// filter on col that keeps the share c of its rows saves the most per-node
// rows, and how many: the filter processes the rows it keeps, as a Filter
// does, and every operator between it and the join, the join included,
// processes only those.
func (r *Rewriter) localSlot(target *Node, col string, c float64) (*Node, float64) {
	saved := r.rows(*target) * (1 - c) // the join's input
	best, gain := target, saved-r.rows(*target)*c
	for slot := target; ; {
		next := r.passDown(*slot, col)
		if next == nil {
			return best, gain
		}
		saved += r.rows(*slot) * (1 - c) // *slot now runs above the filter
		slot = next
		if g := saved - r.rows(*slot)*c; g > gain {
			best, gain = slot, g
		}
	}
}

// transferInput is what the transfer rule reads of one input of a join:
// whether it has an exchange below it, whether it is a broadcast, whether it
// is selective, and whether each of its partitions holds all of its rows.
type transferInput struct{ ex, bcast, sel, repl bool }

// input describes the join input x to the transfer rule; shipped and bcast
// say that the join will re-partition or broadcast it.
func (r *Rewriter) input(x Node, shipped, bcast bool) transferInput {
	return transferInput{
		ex:    shipped || hasExchange(x),
		bcast: bcast,
		sel:   selective(x),
		repl:  bcast || !shipped && r.replicated(x),
	}
}

// A firing is the transfer rule's decision at one join: the source side,
// NoSide when no filter fires; whether the filter is local; and whether the
// local rule's gain decided it, which places it where it gains the most
// (localSlot) rather than as deep as it goes.
type firing struct {
	source       Side
	local, gated bool
}

// fire applies the rule above to a join j whose inputs, left and right
// before any exchange j adds, look like l and rt. The rewrite's estimator
// asks it of the inputs a join choice would build.
func (r *Rewriter) fire(j *JoinNode, left, right Node, l, rt transferInput) firing {
	if len(j.LeftCols) != 1 {
		return firing{}
	}
	if source, src := r.exchangeSource(j, left, right, l, rt); source != NoSide {
		return firing{source: source, local: src.repl && r.Opt.Stats != nil}
	}
	return firing{source: r.localSource(j, left, right, l, rt), local: true, gated: true}
}

// exchangeSource returns the source of a filter into a target with an
// exchange below it, or from a broadcast input, and what the rule read of
// that source.
func (r *Rewriter) exchangeSource(j *JoinNode, left, right Node, l, rt transferInput) (Side, transferInput) {
	src, source, target := l, LeftSide, rt
	switch {
	case rt.bcast && rt.sel && (j.Type == Inner || j.Type == Semi):
		src, source, target = rt, RightSide, l
	case l.bcast && l.sel:
	default:
		if (j.Type == Inner || j.Type == Semi) && !rt.ex && l.ex {
			src, source, target = rt, RightSide, l
		}
		if !target.ex || !src.sel || target.bcast && !r.dropsEnough(j, left, right, source) {
			return NoSide, src
		}
		return source, src
	}
	// A broadcast source over a target that ships nothing saves only the
	// rows the filter drops: with statistics, it must be estimated to drop
	// some.
	if !target.ex && r.Opt.Stats != nil && r.containAt(j, left, right, source) >= 1 {
		return NoSide, src
	}
	return source, src
}

// localSource returns the source of a local filter into a target with no
// exchange below it, or NoSide. It needs statistics: the source must be
// selective and its filter estimated to drop more rows of the target than
// it keeps where it sits (localGain). Of two such sources, an Inner or Semi
// join takes the one that gains more, the left on a tie.
func (r *Rewriter) localSource(j *JoinNode, left, right Node, l, rt transferInput) Side {
	if r.Opt.Stats == nil {
		return NoSide
	}
	best, gain := NoSide, 0.0
	try := func(source Side, src, target transferInput) {
		if !src.sel || target.ex {
			return
		}
		if g := r.localGain(j, left, right, source); g > gain {
			best, gain = source, g
		}
	}
	try(LeftSide, l, rt)
	if j.Type == Inner || j.Type == Semi {
		try(RightSide, rt, l)
	}
	return best
}

// localGain estimates the per-node rows a local filter from source saves
// where it saves the most (localSlot).
func (r *Rewriter) localGain(j *JoinNode, left, right Node, source Side) float64 {
	target, key := right, j.RightCols[0]
	if source == RightSide {
		target, key = left, j.LeftCols[0]
	}
	_, gain := r.localSlot(&target, key, r.containAt(j, left, right, source))
	return gain
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
// that takes: none for a local filter.
func (r *Rewriter) filtered(j *JoinNode, left, right Node, l, rt transferInput) (float64, float64, int) {
	lr, rr := r.rows(left), r.rows(right)
	f := r.fire(j, left, right, l, rt)
	x := 1
	if f.local {
		x = 0
	}
	switch f.source {
	case LeftSide:
		return lr, rr * r.containAt(j, left, right, f.source), x
	case RightSide:
		return lr * r.containAt(j, left, right, f.source), rr, x
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

// replicated reports whether every partition of the subtree at n holds all
// of its rows: a replicated input that no local filter has thinned, each
// partition by its own keys. (Below a broadcast nothing can have.)
func (r *Rewriter) replicated(n Node) bool {
	if p := r.out.Props[n]; p == nil || !p.Repl {
		return false
	}
	var thinned func(Node) bool
	thinned = func(n Node) bool {
		switch n := n.(type) {
		case *BroadcastNode:
			return false
		case *RuntimeFilterNode:
			if n.Local {
				return true
			}
		}
		for _, c := range n.Children() {
			if thinned(c) {
				return true
			}
		}
		return false
	}
	return !thinned(n)
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
