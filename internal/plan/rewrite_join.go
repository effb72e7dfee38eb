package plan

import (
	"fmt"

	"pref/internal/partition"
)

func (r *Rewriter) rewriteJoin(n *JoinNode) (Node, *Prop, Schema, error) {
	if len(n.LeftCols) != len(n.RightCols) {
		return nil, nil, nil, fmt.Errorf("plan: join column lists differ in length")
	}

	// Optimization of Section 2.2: a semi/anti join of a PREF table R
	// against its bare referenced table S on the partitioning predicate is
	// a filter on R's hasRef index — no join at all.
	if (n.Type == Semi || n.Type == Anti) && !r.Opt.DisableHasRefOpt {
		if node, prop, sch, ok, err := r.tryHasRefRewrite(n); err != nil || ok {
			return node, prop, sch, err
		}
	}

	left, lp, ls, err := r.rewrite(n.Left)
	if err != nil {
		return nil, nil, nil, err
	}
	right, rp, rs, err := r.rewrite(n.Right)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, c := range n.LeftCols {
		if ls.Index(c) < 0 {
			return nil, nil, nil, fmt.Errorf("plan: join column %q not in left input %v", c, ls.Names())
		}
	}
	for _, c := range n.RightCols {
		if rs.Index(c) < 0 {
			return nil, nil, nil, fmt.Errorf("plan: join column %q not in right input %v", c, rs.Names())
		}
	}

	outSchema := ls.Concat(rs)
	if n.Type == Semi || n.Type == Anti {
		outSchema = ls
	}
	if n.Residual != nil {
		if _, err := n.Residual.Bind(ls.Concat(rs)); err != nil {
			return nil, nil, nil, err
		}
	}

	// Cross/theta joins execute as broadcast joins (Section 2.2 "Other
	// joins"): ship the (deduplicated) build side to every node.
	if len(n.LeftCols) == 0 {
		return r.broadcastJoin(n, left, lp, ls, right, rp, rs, outSchema)
	}

	// Replicated inputs join locally with anything.
	if lp.Repl || rp.Repl {
		return r.replicatedJoin(n, left, lp, ls, right, rp, rs, outSchema)
	}

	// Case (1): both inputs hash-partitioned on keys implied equal by the
	// join predicate (directly or via upstream equivalences). All
	// partners of a key share a partition, so every join type (including
	// anti/outer, whose absence test must be locally decidable) is safe.
	if lp.HashCols() != nil && rp.HashCols() != nil && lp.Parts == rp.Parts &&
		hashAligned(lp, rp, n.LeftCols, n.RightCols) {
		j := r.physJoin(n, left, right)
		np := &Prop{Parts: lp.Parts, Placed: unionPlaced(lp.Placed, rp.Placed), Equiv: r.joinEquiv(n, lp, rp)}
		np.SetHashCols(lp.HashCols())
		np.SetDupCols(append(lp.DupCols(), rp.DupCols()...))
		if n.Type == Semi || n.Type == Anti {
			np.Placed = lp.Placed
			np.SetDupCols(lp.DupCols())
			np.Equiv = lp.Equiv
		}
		node, p, s := r.note(j, outSchema, np)
		return node, p, s, nil
	}

	// Cases (2) and (3): one input carries a PREF scheme whose
	// partitioning predicate is this join predicate and whose referenced
	// table is placed intact on the other input.
	if refd, ok := r.prefMatch(n, lp, rp); ok && r.prefJoinSafe(n, refd) {
		j := r.physJoin(n, left, right)
		refdProp := rp
		if refd == "left" {
			refdProp = lp
		}
		np := &Prop{Parts: lp.Parts, Placed: unionPlaced(lp.Placed, rp.Placed), Equiv: r.joinEquiv(n, lp, rp)}
		// Dup(o) follows the referenced input (case 3); when the
		// referenced side is the single-copy seed placement its
		// DupCols are empty, recovering case (2)'s Dup(o)=0.
		np.SetDupCols(refdProp.DupCols())
		// A hash property survives only if it came from the referenced
		// side's placement (rows stay where the referenced side was).
		np.SetHashCols(refdProp.HashCols())
		if n.Type == Semi || n.Type == Anti {
			np.Placed = lp.Placed
			np.SetDupCols(lp.DupCols())
			np.Equiv = lp.Equiv
		}
		node, p, s := r.note(j, outSchema, np)
		return node, p, s, nil
	}

	// Fallback: a side already hash-partitioned on the join keys (modulo its
	// equivalences) is left alone and only the other is re-partitioned —
	// unless the estimator prices broadcasting one input as cheaper (the
	// classic distributed-join choice; needs Options.Stats).
	leftOK := hashedOn(lp, n.LeftCols) && !lp.Dup()
	rightOK := hashedOn(rp, n.RightCols) && !rp.Dup()
	if side := r.broadcastSide(n, left, ls, right, rs, leftOK, rightOK); side != NoSide {
		return r.broadcastEqui(n, side, left, lp, ls, right, rp, rs, outSchema)
	}
	if !leftOK {
		left, lp, ls = r.repartition(left, lp, ls, n.LeftCols)
	}
	if !rightOK {
		right, rp, rs = r.repartition(right, rp, rs, n.RightCols)
	}
	// The left input is now hashed on its join keys, through its own columns
	// where it was left alone: the output keeps that placement.
	j := r.physJoin(n, left, right)
	np := &Prop{Parts: lp.Parts, Placed: unionPlaced(lp.Placed, rp.Placed), Equiv: r.joinEquiv(n, lp, rp)}
	np.SetHashCols(lp.HashCols())
	np.SetDupCols(append(lp.DupCols(), rp.DupCols()...))
	if n.Type == Semi || n.Type == Anti {
		np.Placed = lp.Placed
		np.SetDupCols(lp.DupCols())
		np.Equiv = lp.Equiv
	}
	node, p, s := r.note(j, outSchema, np)
	return node, p, s, nil
}

// joinEquiv derives the output equivalence classes of a join: both sides'
// classes survive, and an inner join adds the predicate's equalities
// (outer joins do not — the right side may be null-extended).
func (r *Rewriter) joinEquiv(n *JoinNode, lp, rp *Prop) [][]string {
	out := UnionEquiv(lp.Equiv, rp.Equiv)
	if n.Type == Inner {
		for i := range n.LeftCols {
			out = AddEquiv(out, n.LeftCols[i], n.RightCols[i])
		}
	}
	return out
}

// hashAligned reports whether the two hash placements provably co-locate
// all rows with equal join keys: every positional hash-column pair must be
// implied equal by the join predicate, modulo each side's equivalences.
func hashAligned(lp, rp *Prop, leftCols, rightCols []string) bool {
	lh, rh := lp.HashCols(), rp.HashCols()
	if len(lh) != len(rh) {
		return false
	}
	used := make([]bool, len(leftCols))
	for i := range lh {
		found := false
		for j := range leftCols {
			if used[j] {
				continue
			}
			if lp.EquivSame(lh[i], leftCols[j]) && rp.EquivSame(rh[i], rightCols[j]) {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// hashedOn reports whether p is hash-partitioned on cols, position by
// position, each hash column equal or equivalent to its join column.
func hashedOn(p *Prop, cols []string) bool {
	h := p.HashCols()
	if len(h) == 0 || len(h) != len(cols) {
		return false
	}
	for i := range h {
		if !p.EquivSame(h[i], cols[i]) {
			return false
		}
	}
	return true
}

// broadcastSide prices the ways a misaligned one-key equi-join can meet
// and returns the input to broadcast, or NoSide to re-partition the
// unaligned inputs. Re-partitioning ships each unaligned input once, and
// every node then joins a 1/n share of both. Broadcasting ships one input
// to all n−1 other nodes, and every node receives it whole and builds on it
// whole; only inner joins may broadcast their left input (pairs then form
// where the right rows live). Each way is priced with the runtime filter the
// transfer rule would fire on it. A broadcast wins only when it is estimated
// to ship strictly fewer bytes and to take strictly less simulated time; a
// tie keeps the re-partitioning.
func (r *Rewriter) broadcastSide(n *JoinNode, left Node, ls Schema, right Node, rs Schema, leftOK, rightOK bool) Side {
	if r.Opt.Stats == nil || len(n.LeftCols) != 1 || leftOK && rightOK {
		return NoSide
	}
	parts := float64(r.Cfg.NumPartitions)
	wl, wr := 8*r.width(ls, n.Left), 8*r.width(rs, n.Right)
	input := r.input
	l, rr, x := r.filtered(n, left, right, input(left, !leftOK, false), input(right, !rightOK, false))
	rep := price{nodeRows: (l + rr) / parts, exchanges: x}
	if !leftOK {
		rep.bytes += l * wl * (parts - 1) / parts
		rep.nodeRows += l / parts
		rep.exchanges++
	}
	if !rightOK {
		rep.bytes += rr * wr * (parts - 1) / parts
		rep.nodeRows += rr / parts
		rep.exchanges++
	}

	side, best := NoSide, rep
	l, rr, x = r.filtered(n, left, right, input(left, false, false), input(right, true, true))
	if br := (price{bytes: rr * wr * (parts - 1), nodeRows: 2*rr + l/parts, exchanges: 1 + x}); br.beats(rep) {
		side, best = RightSide, br
	}
	if n.Type == Inner {
		l, rr, x = r.filtered(n, left, right, input(left, true, true), input(right, false, false))
		bl := price{bytes: l * wl * (parts - 1), nodeRows: 2*l + rr/parts, exchanges: 1 + x}
		if bl.beats(rep) && bl.time() < best.time() {
			side = LeftSide
		}
	}
	return side
}

// broadcastEqui executes a misaligned equi join by broadcasting one side.
func (r *Rewriter) broadcastEqui(n *JoinNode, side Side,
	left Node, lp *Prop, ls Schema, right Node, rp *Prop, rs Schema,
	outSchema Schema) (Node, *Prop, Schema, error) {

	if side == RightSide {
		right, rp, rs = r.preShipDedup(right, rp, rs)
		b := &BroadcastNode{Child: right, DupCols: dupColsFor(r, rp), OneCopy: rp.Repl}
		r.note(b, rs, &Prop{Parts: rp.Parts, Repl: true, Placed: map[string]PlacedEntry{}})
		j := r.physJoin(n, left, b)
		np := &Prop{Parts: lp.Parts, Placed: lp.Placed, Equiv: r.joinEquiv(n, lp, rp)}
		np.SetHashCols(lp.HashCols())
		np.SetDupCols(lp.DupCols())
		if n.Type == Semi || n.Type == Anti {
			np.Equiv = lp.Equiv
		}
		node, p, s := r.note(j, outSchema, np)
		return node, p, s, nil
	}

	// Broadcast left (inner only): rows pair up where the right side
	// lives, so the output inherits the right placement. The broadcast
	// dedups the left copies in flight — a duplicated broadcast side
	// would multiply pairs.
	left, lp, ls = r.preShipDedup(left, lp, ls)
	b := &BroadcastNode{Child: left, DupCols: dupColsFor(r, lp), OneCopy: lp.Repl}
	r.note(b, ls, &Prop{Parts: lp.Parts, Repl: true, Placed: map[string]PlacedEntry{}})
	j := r.physJoin(n, b, right)
	np := &Prop{Parts: rp.Parts, Placed: rp.Placed, Equiv: r.joinEquiv(n, lp, rp)}
	np.SetHashCols(rp.HashCols())
	np.SetDupCols(rp.DupCols())
	node, p, s := r.note(j, outSchema, np)
	return node, p, s, nil
}

// physJoin clones the logical join around the physical children.
func (r *Rewriter) physJoin(n *JoinNode, left, right Node) *JoinNode {
	return &JoinNode{
		Left: left, Right: right, Type: n.Type,
		LeftCols: n.LeftCols, RightCols: n.RightCols, Residual: n.Residual,
	}
}

// prefJoinSafe guards the PREF co-location cases for join types whose
// match-absence test must be locally decidable (Semi/Anti/LeftOuter):
//
//   - refd == "left": the left (output) side is the referenced input, so
//     by Definition 1 every matching referencing tuple has a copy wherever
//     the left row lives — the full partner set is locally visible, even
//     with filters or residual predicates. Always safe.
//   - refd == "right": the left side is the referencing input, whose
//     copies each see only a local subset of partners. Safe only against
//     the bare referenced table (then every copy either has a local
//     partner or is a global orphan) with no residual.
func (r *Rewriter) prefJoinSafe(n *JoinNode, refd string) bool {
	if n.Type == Inner {
		return true
	}
	if refd == "left" {
		return true
	}
	_, bare := n.Right.(*ScanNode)
	return bare && n.Residual == nil
}

// prefMatch implements the shared core of cases (2) and (3): it reports
// which side is the referenced input ("left"/"right") when some placed
// PREF scheme's partitioning predicate equals the join predicate and its
// referenced table is placed intact on the other side. Failing that, a
// cover (partition.Config.Covers) of a placed PREF table stands in for its
// scheme, for an inner join and for a semi join whose output side is the
// covered table. Never for an anti or outer join, nor with the PREF table
// as a semi join's output: a row with no partner down the chain may have
// a copy where none of its partners are, so its absence test is not local.
func (r *Rewriter) prefMatch(n *JoinNode, lp, rp *Prop) (string, bool) {
	if lp.Parts != rp.Parts {
		return "", false
	}
	direct := func(e PlacedEntry) []partition.Cover {
		return []partition.Cover{{Table: e.Scheme.RefTable, Pred: e.Scheme.Pred}}
	}
	covers := func(e PlacedEntry) []partition.Cover { return r.covers[e.Table] }
	switch {
	case r.matchOneDirection(lp, n.LeftCols, rp, n.RightCols, direct): // left references…
		return "right", true
	case r.matchOneDirection(rp, n.RightCols, lp, n.LeftCols, direct): // …then right
		return "left", true
	case n.Type == Inner && r.matchOneDirection(lp, n.LeftCols, rp, n.RightCols, covers):
		return "right", true
	case (n.Type == Inner || n.Type == Semi) && r.matchOneDirection(rp, n.RightCols, lp, n.LeftCols, covers):
		return "left", true
	}
	return "", false
}

// matchOneDirection checks whether some alias on the referencing side has
// a PREF scheme one of whose targets (by) has a predicate equal to the join
// predicate — modulo column equivalences established upstream — and a
// table placed intact on the referenced side.
func (r *Rewriter) matchOneDirection(ringProp *Prop, ringCols []string, refdProp *Prop, refdCols []string,
	by func(PlacedEntry) []partition.Cover) bool {
	for alias, entry := range ringProp.Placed {
		if entry.Scheme == nil || entry.Scheme.Method != partition.Pref {
			continue
		}
		for _, to := range by(entry) {
			for refdAlias, refdEntry := range refdProp.Placed {
				if refdEntry.Table != to.Table || refdEntry.Scheme != r.Cfg.Scheme(to.Table) {
					continue
				}
				if pairsMatchEquiv(
					ringProp, ringCols, refdProp, refdCols,
					qualifyAll(alias, to.Pred.ReferencingCols),
					qualifyAll(refdAlias, to.Pred.ReferencedCols),
				) {
					return true
				}
			}
		}
	}
	return false
}

// pairsMatchEquiv reports whether the join pairing (joinA[j], joinB[j])
// covers every wanted pair (wantA[i], wantB[i]) up to per-side column
// equivalence.
func pairsMatchEquiv(aProp *Prop, joinA []string, bProp *Prop, joinB []string, wantA, wantB []string) bool {
	if len(joinA) != len(wantA) {
		return false
	}
	used := make([]bool, len(joinA))
	for i := range wantA {
		found := false
		for j := range joinA {
			if used[j] {
				continue
			}
			if aProp.EquivSame(joinA[j], wantA[i]) && bProp.EquivSame(joinB[j], wantB[i]) {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// replicatedJoin joins against a replicated side locally.
func (r *Rewriter) replicatedJoin(n *JoinNode, left Node, lp *Prop, ls Schema,
	right Node, rp *Prop, rs Schema, outSchema Schema) (Node, *Prop, Schema, error) {

	// Semi/Anti/LeftOuter against a replicated right side are safe: the
	// full partner set is present on every node. The reverse (replicated
	// left, partitioned right) is NOT locally decidable for those types —
	// fall back to re-partitioning both sides.
	if lp.Repl && !rp.Repl && n.Type != Inner {
		left, lp, ls = r.repartition(left, lp, ls, n.LeftCols)
		right, rp, rs = r.repartition(right, rp, rs, n.RightCols)
		j := r.physJoin(n, left, right)
		np := &Prop{Parts: lp.Parts, Placed: map[string]PlacedEntry{}}
		np.SetHashCols(n.LeftCols)
		node, p, s := r.note(j, outSchema, np)
		return node, p, s, nil
	}

	j := r.physJoin(n, left, right)
	np := r.replicatedProp(n, lp, rp)
	if n.Type == Semi || n.Type == Anti {
		np.Placed = lp.Placed
		np.SetDupCols(lp.DupCols())
		np.SetHashCols(lp.HashCols())
		np.Repl = lp.Repl
		np.Equiv = lp.Equiv
	}
	node, p, s := r.note(j, outSchema, np)
	return node, p, s, nil
}

// replicatedProp is the output property of the inner join n of inputs
// with properties lp and rp, one of them replicated: rows stay where the
// other input's are.
func (r *Rewriter) replicatedProp(n *JoinNode, lp, rp *Prop) *Prop {
	np := &Prop{Parts: lp.Parts, Equiv: r.joinEquiv(n, lp, rp)}
	switch {
	case lp.Repl && rp.Repl:
		np.Repl = true
		np.Placed = map[string]PlacedEntry{}
	case lp.Repl:
		np.SetHashCols(rp.HashCols())
		np.Placed = rp.Placed
		np.SetDupCols(rp.DupCols())
	default:
		np.SetHashCols(lp.HashCols())
		np.Placed = lp.Placed
		np.SetDupCols(lp.DupCols())
	}
	return np
}

// broadcastJoin ships the deduplicated right side to every node and joins
// locally; correct for any join type because the full build side is
// present everywhere.
func (r *Rewriter) broadcastJoin(n *JoinNode, left Node, lp *Prop, ls Schema,
	right Node, rp *Prop, rs Schema, outSchema Schema) (Node, *Prop, Schema, error) {

	left, lp, ls = r.preShipDedup(left, lp, ls)
	right, rp, rs = r.preShipDedup(right, rp, rs)

	var bright Node = &BroadcastNode{Child: right, DupCols: dupColsFor(r, rp), OneCopy: rp.Repl}
	r.note(bright, rs, &Prop{Parts: rp.Parts, Repl: true, Placed: map[string]PlacedEntry{}})

	// The probe side must also be duplicate-free, or pair copies multiply.
	left, lp, ls = r.dedup(left, lp, ls)

	j := r.physJoin(n, left, bright)
	np := &Prop{Parts: lp.Parts, Placed: lp.Placed, Repl: lp.Repl}
	np.SetHashCols(lp.HashCols())
	node, p, s := r.note(j, outSchema, np)
	return node, p, s, nil
}

// repartition wraps child in a hash re-partitioning on cols, eliminating
// PREF duplicates in transit.
func (r *Rewriter) repartition(child Node, prop *Prop, sch Schema, cols []string) (Node, *Prop, Schema) {
	child, prop, sch = r.preShipDedup(child, prop, sch)
	rep := &RepartitionNode{Child: child, Cols: cols, DupCols: dupColsFor(r, prop), OneCopy: prop.Repl}
	np := &Prop{Parts: prop.Parts, Placed: map[string]PlacedEntry{}}
	np.SetHashCols(cols)
	return r.note(rep, sch, np)
}

// tryHasRefRewrite recognizes σ_{hasRef=…}(R) patterns: a semi (anti) join
// of R against its bare referenced table S on exactly R's partitioning
// predicate becomes a filter hasRef=1 (hasRef=0) on R.
func (r *Rewriter) tryHasRefRewrite(n *JoinNode) (Node, *Prop, Schema, bool, error) {
	if n.Residual != nil {
		return nil, nil, nil, false, nil
	}
	rightScan, ok := n.Right.(*ScanNode)
	if !ok {
		return nil, nil, nil, false, nil
	}
	leftAlias, leftTable, ok := baseScan(n.Left)
	if !ok {
		return nil, nil, nil, false, nil
	}
	ts := r.Cfg.Scheme(leftTable)
	if ts == nil || ts.Method != partition.Pref || ts.RefTable != rightScan.Table {
		return nil, nil, nil, false, nil
	}
	if !colPairsEqual(
		n.LeftCols, n.RightCols,
		qualifyAll(leftAlias, ts.Pred.ReferencingCols),
		qualifyAll(rightScan.Alias, ts.Pred.ReferencedCols),
	) {
		return nil, nil, nil, false, nil
	}

	left, lp, ls, err := r.rewrite(n.Left)
	if err != nil {
		return nil, nil, nil, true, err
	}
	want := int64(1)
	if n.Type == Anti {
		want = 0
	}
	f := &FilterNode{Child: left, Pred: Eq(Col(HasRefCol(leftAlias)), Lit(want))}
	node, p, s := r.note(f, ls, lp)
	return node, p, s, true, nil
}

// baseScan unwraps Filter chains down to a ScanNode, returning its alias
// and table.
func baseScan(n Node) (alias, tbl string, ok bool) {
	for {
		switch x := n.(type) {
		case *ScanNode:
			return x.Alias, x.Table, true
		case *FilterNode:
			n = x.Child
		default:
			return "", "", false
		}
	}
}
