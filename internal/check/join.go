package check

import (
	"pref/internal/partition"
	"pref/internal/plan"
)

// deriveJoin re-proves one of the Section 2.2 co-location cases for a
// physical hash join, in the rewriter's order of preference, and derives
// the output properties that case dictates. A join matching no case is a
// locality violation: its inputs are not provably co-partitioned on the
// join keys and no Repartition/Broadcast precedes it.
func (c *checker) deriveJoin(n *plan.JoinNode) *info {
	li := c.visit(n.Left)
	ri := c.visit(n.Right)
	lp, rp := li.prop, ri.prop
	ls, rs := li.sch, ri.sch

	if len(n.LeftCols) != len(n.RightCols) {
		c.report(RuleMalformed, n, "join column lists differ in length (%d vs %d)", len(n.LeftCols), len(n.RightCols))
	}
	for _, col := range n.LeftCols {
		if ls.Index(col) < 0 {
			c.report(RuleMalformed, n, "join column %q not in left schema %v", col, ls.Names())
		}
	}
	for _, col := range n.RightCols {
		if rs.Index(col) < 0 {
			c.report(RuleMalformed, n, "join column %q not in right schema %v", col, rs.Names())
		}
	}
	outSchema := ls.Concat(rs)
	semiLike := n.Type == plan.Semi || n.Type == plan.Anti
	if semiLike {
		outSchema = ls
	}
	if n.Residual != nil {
		if _, err := n.Residual.Bind(ls.Concat(rs)); err != nil {
			c.report(RuleMalformed, n, "residual predicate does not bind: %v", err)
		}
	}
	if lp.Parts != rp.Parts {
		c.report(RuleMalformed, n, "inputs disagree on partition count (%d vs %d)", lp.Parts, rp.Parts)
	}
	c.checkOrphanJoin(n, lp, rp)

	// Cross/theta join: only legal against a replicated build side, with a
	// duplicate-free probe side (pair copies would multiply otherwise).
	if len(n.LeftCols) == 0 {
		if !rp.Repl {
			c.report(RuleLocality, n,
				"cross/theta join needs a replicated (broadcast) right input, got method %s", rp.Method())
		}
		if lp.Dup() {
			c.report(RuleDupLeak, n, "cross/theta join probe side has live dup columns %v", lp.DupCols())
		}
		if rp.Dup() {
			c.report(RuleDupLeak, n, "cross/theta join build side has live dup columns %v", rp.DupCols())
		}
		np := &plan.Prop{Parts: lp.Parts, Placed: lp.Placed, Repl: lp.Repl}
		np.SetHashCols(lp.HashCols())
		return &info{prop: np, sch: outSchema, contentRepl: np.Repl}
	}

	// Replicated inputs join locally with anything — except a replicated
	// probe side against a partitioned build side for join types whose
	// match-absence test must be locally decidable: each node would see
	// only a subset of potential partners, so a "no match here" verdict is
	// not a "no match anywhere" verdict. The rewriter re-partitions both
	// sides in that situation; seeing it in a physical plan means the
	// guard was bypassed.
	if lp.Repl || rp.Repl {
		if lp.Repl && !rp.Repl && n.Type != plan.Inner {
			c.report(RuleLocality, n,
				"%v join with replicated probe side over partitioned build side is not locally decidable", n.Type)
		}
		np := &plan.Prop{Parts: lp.Parts, Equiv: c.joinEquiv(n, lp, rp)}
		switch {
		case lp.Repl && rp.Repl:
			np.Repl = true
			np.Placed = map[string]plan.PlacedEntry{}
		case lp.Repl:
			np.SetHashCols(rp.HashCols())
			np.Placed = rp.Placed
			np.SetDupCols(rp.DupCols())
		default:
			np.SetHashCols(lp.HashCols())
			np.Placed = lp.Placed
			np.SetDupCols(lp.DupCols())
		}
		if semiLike {
			np.Placed = lp.Placed
			np.SetDupCols(lp.DupCols())
			np.SetHashCols(lp.HashCols())
			np.Repl = lp.Repl
			np.Equiv = lp.Equiv
		}
		return &info{prop: np, sch: outSchema, contentRepl: np.Repl}
	}

	// Case (1): both sides hash-partitioned on keys the join predicate
	// implies equal — all partners of a key share a partition, so every
	// join type is safe.
	if lp.HashCols() != nil && rp.HashCols() != nil && lp.Parts == rp.Parts &&
		hashAligned(lp, rp, n.LeftCols, n.RightCols) {
		np := &plan.Prop{Parts: lp.Parts, Placed: unionPlaced(lp.Placed, rp.Placed), Equiv: c.joinEquiv(n, lp, rp)}
		np.SetHashCols(lp.HashCols())
		np.SetDupCols(append(lp.DupCols(), rp.DupCols()...))
		if semiLike {
			np.Placed = lp.Placed
			np.SetDupCols(lp.DupCols())
			np.Equiv = lp.Equiv
		}
		return &info{prop: np, sch: outSchema}
	}

	// Cases (2)/(3): one side carries a PREF scheme whose partitioning
	// predicate is this join predicate and whose referenced table is placed
	// intact on the other side (Definition 1 then guarantees every partner
	// is local).
	if refd, ok := c.prefMatch(n, lp, rp); ok && c.prefJoinSafe(n, refd) {
		refdProp := rp
		if refd == "left" {
			refdProp = lp
		}
		np := &plan.Prop{Parts: lp.Parts, Placed: unionPlaced(lp.Placed, rp.Placed), Equiv: c.joinEquiv(n, lp, rp)}
		np.SetDupCols(refdProp.DupCols())
		np.SetHashCols(refdProp.HashCols())
		if semiLike {
			np.Placed = lp.Placed
			np.SetDupCols(lp.DupCols())
			np.Equiv = lp.Equiv
		}
		return &info{prop: np, sch: outSchema}
	}

	// No co-location case applies and neither side was shipped: the join
	// would miss partners that live on other partitions.
	c.report(RuleLocality, n,
		"join inputs not provably co-partitioned on the join keys (left %s hash=%v, right %s hash=%v) and no Repartition/Broadcast precedes the join",
		lp.Method(), lp.HashCols(), rp.Method(), rp.HashCols())
	np := &plan.Prop{Parts: lp.Parts, Placed: unionPlaced(lp.Placed, rp.Placed), Equiv: c.joinEquiv(n, lp, rp)}
	np.SetHashCols(n.LeftCols)
	return &info{prop: np, sch: outSchema}
}

// checkOrphanJoin lets an input whose orphan groups may be split
// (Prop.Orphans) reach only an inner join on its marked alias's PREF
// predicate against the referenced table placed intact: there a group with
// a partner is whole, and an orphan group, having none, joins nothing.
func (c *checker) checkOrphanJoin(n *plan.JoinNode, lp, rp *plan.Prop) {
	for _, side := range []struct {
		ring, refd         *plan.Prop
		ringCols, refdCols []string
	}{{lp, rp, n.LeftCols, n.RightCols}, {rp, lp, n.RightCols, n.LeftCols}} {
		a := side.ring.Orphans
		if a == "" {
			continue
		}
		only := &plan.Prop{Placed: map[string]plan.PlacedEntry{a: side.ring.Placed[a]}, Equiv: side.ring.Equiv}
		if n.Type != plan.Inner || side.refd.Orphans != "" || !c.matchOneDirection(only, side.ringCols, side.refd, side.refdCols, false) {
			c.report(RuleLocality, n, "%v join off the PREF predicate of %s consumes its split orphan groups", n.Type, a)
		}
	}
}

// joinEquiv mirrors the rewriter: both sides' equivalence classes survive,
// and an inner join adds the predicate's equalities (outer joins do not —
// the right side may be null-extended; semi/anti output no right columns).
func (c *checker) joinEquiv(n *plan.JoinNode, lp, rp *plan.Prop) [][]string {
	out := plan.UnionEquiv(lp.Equiv, rp.Equiv)
	if n.Type == plan.Inner {
		for i := range n.LeftCols {
			out = plan.AddEquiv(out, n.LeftCols[i], n.RightCols[i])
		}
	}
	return out
}

// hashAligned reports whether two hash placements provably co-locate all
// rows with equal join keys: every positional hash-column pair must be
// implied equal by some join conjunct, modulo each side's equivalences.
func hashAligned(lp, rp *plan.Prop, leftCols, rightCols []string) bool {
	lh, rh := lp.HashCols(), rp.HashCols()
	if len(lh) != len(rh) || len(leftCols) != len(rightCols) {
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

// prefJoinSafe guards the PREF co-location cases for join types whose
// match-absence test must be locally decidable (Semi/Anti/LeftOuter):
// safe when the output side is the referenced input, or against a bare
// referenced-table scan with no residual predicate. The join's own runtime
// filter on that scan keeps it bare: it drops only rows whose key no left
// row on the node holds, so every local partner of a left copy survives.
func (c *checker) prefJoinSafe(n *plan.JoinNode, refd string) bool {
	if n.Type == plan.Inner {
		return true
	}
	if refd == "left" {
		return true
	}
	right := n.Right
	if f, ok := right.(*plan.RuntimeFilterNode); ok && f.From == n {
		right = f.Child
	}
	_, bare := right.(*plan.ScanNode)
	return bare && n.Residual == nil
}

// prefMatch reports which side is the referenced input ("left"/"right")
// when some placed PREF scheme's partitioning predicate equals the join
// predicate and its referenced table is placed intact on the other side.
// Failing that, a table the chase finds the PREF table covers stands in
// for the referenced one, on an inner join or on a semi join whose output
// side is the covered table: only there does a PREF copy with no partner
// down the chain, stored where none of its partners are, change nothing.
func (c *checker) prefMatch(n *plan.JoinNode, lp, rp *plan.Prop) (string, bool) {
	if lp.Parts != rp.Parts {
		return "", false
	}
	switch {
	case c.matchOneDirection(lp, n.LeftCols, rp, n.RightCols, false):
		return "right", true
	case c.matchOneDirection(rp, n.RightCols, lp, n.LeftCols, false):
		return "left", true
	case n.Type == plan.Inner && c.matchOneDirection(lp, n.LeftCols, rp, n.RightCols, true):
		return "right", true
	case (n.Type == plan.Inner || n.Type == plan.Semi) && c.matchOneDirection(rp, n.RightCols, lp, n.LeftCols, true):
		return "left", true
	}
	return "", false
}

// matchOneDirection checks whether some alias on the referencing side has
// a PREF scheme whose predicate equals the join predicate — modulo column
// equivalences established upstream — and whose referenced table is placed
// intact (at its configured scheme) on the referenced side. With chased,
// the tables the chase finds below the referenced one stand in for it.
func (c *checker) matchOneDirection(ringProp *plan.Prop, ringCols []string, refdProp *plan.Prop, refdCols []string, chased bool) bool {
	for alias, entry := range ringProp.Placed {
		sch := entry.Scheme
		if sch == nil || sch.Method != partition.Pref {
			continue
		}
		targets := []reach{{sch.RefTable, sch.Pred.ReferencedCols}}
		if chased {
			targets = c.chase(sch)
		}
		for _, to := range targets {
			for refdAlias, refdEntry := range refdProp.Placed {
				if refdEntry.Table != to.table {
					continue
				}
				if refdEntry.Scheme != c.cfg.Scheme(to.table) {
					continue
				}
				if pairsMatchEquiv(
					ringProp, ringCols, refdProp, refdCols,
					qualify(alias, sch.Pred.ReferencingCols),
					qualify(refdAlias, to.cols),
				) {
					return true
				}
			}
		}
	}
	return false
}

// A reach is a table a PREF table's copies follow, and the columns of that
// table its referencing columns equal, position by position.
type reach struct {
	table string
	cols  []string
}

// chase follows a PREF scheme's chain below its referenced table, one hop
// at a time, and returns every table whose rows all have their partners
// on their own partition. From table m, whose columns at the scheme's
// referencing columns equal, the hop m PREF on l is taken only when the
// schema's foreign keys give every l row an m partner (fkPairs), and when
// m's predicate pairs every column of at with a column of l; then each m
// partner, and with it each copy of the scheme's table, is where its l row
// is.
func (c *checker) chase(sch *partition.TableScheme) []reach {
	var out []reach
	m, at := sch.RefTable, sch.Pred.ReferencedCols
	for hops := 0; hops < len(c.cfg.Schemes); hops++ {
		ms := c.cfg.Scheme(m)
		if ms == nil || ms.Method != partition.Pref || !fkPairs(c.cat, ms) {
			break
		}
		down := make(map[string]string, len(ms.Pred.ReferencingCols))
		for i, col := range ms.Pred.ReferencingCols {
			down[col] = ms.Pred.ReferencedCols[i]
		}
		next := make([]string, len(at))
		for i, col := range at {
			if next[i] = down[col]; next[i] == "" {
				return out
			}
		}
		m, at = ms.RefTable, next
		out = append(out, reach{m, at})
	}
	return out
}

// pairsMatchEquiv reports whether the join pairing (joinA[j], joinB[j])
// covers every wanted pair (wantA[i], wantB[i]) up to per-side column
// equivalence.
func pairsMatchEquiv(aProp *plan.Prop, joinA []string, bProp *plan.Prop, joinB []string, wantA, wantB []string) bool {
	if len(joinA) != len(wantA) || len(joinA) != len(joinB) {
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

func unionPlaced(a, b map[string]plan.PlacedEntry) map[string]plan.PlacedEntry {
	out := make(map[string]plan.PlacedEntry, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}
