package check

import (
	"slices"

	"pref/internal/plan"
)

// Partial aggregates below lookup joins.
//
// With statistics the rewrite may run a two-phase aggregate's partial below
// the joins that only name its groups (internal/plan's lookup.go): the final
// aggregate then merges, through its one exchange, states that lookup joins
// extended with the columns it groups by. The walk below re-proves such a
// plan from the operators alone. Every join between the exchange and the
// partial must be an inner equi-join with a lookup: a base table, possibly
// filtered, that every node holds whole (replicated, or broadcast), joined on
// columns holding its primary key, so each state meets at most one row of
// it. No input of those joins, nor the partial's own input, may carry live
// PREF duplicates: the partial would sum every copy that a dedup above the
// joins used to drop. And the final aggregate's arguments must read no
// lookup column: the partial, below the joins, could not have summed it.
// That the exchange ships only the group-by and state columns, not the
// joins' keys, is the dead-column rule's (checkLive reads a final aggregate
// as reading exactly those).

// checkLowered re-proves the partial under the final aggregate fin when it
// runs below joins.
func (c *checker) checkLowered(fin *plan.FinalAggNode) {
	var x plan.Node
	switch ex := fin.Child.(type) {
	case *plan.RepartitionNode:
		x = ex.Child
	case *plan.GatherNode:
		x = ex.Child
	default:
		return
	}
	looked := map[string]bool{}
	crossed := false
	for {
		j, ok := x.(*plan.JoinNode)
		if !ok {
			break
		}
		crossed = true
		state, look, lcols := j.Left, j.Right, j.RightCols
		if !statesBelow(state) {
			state, look, lcols = j.Right, j.Left, j.LeftCols
		}
		if j.Type != plan.Inner || len(j.LeftCols) == 0 || !statesBelow(state) {
			c.report(RuleLookup, j, "sits between a final aggregate's exchange and its partial but is no inner equi-join over the partial's states")
			return
		}
		if why := c.lookupFault(look, lcols); why != "" {
			c.report(RuleLookup, j, "runs on partial states, but its input %s %s", look, why)
		}
		for _, in := range []plan.Node{state, look} {
			if info := c.memo[in]; info != nil && info.prop.Dup() {
				c.report(RuleLookup, j, "runs on partial states over live PREF duplicates %v of %s", info.prop.DupCols(), in)
			}
		}
		if info := c.memo[look]; info != nil {
			for _, f := range info.sch {
				looked[f.Name] = true
			}
		}
		x = state
	}
	p, ok := x.(*plan.PartialAggNode)
	if !crossed || !ok {
		return
	}
	if info := c.memo[p.Child]; info != nil && info.prop.Dup() {
		c.report(RuleLookup, p, "runs below lookup joins over live PREF duplicates %v a dedup above them would drop", info.prop.DupCols())
	}
	for _, a := range fin.Aggs {
		if a.Arg == nil {
			continue
		}
		for _, col := range a.Arg.AppendCols(nil) {
			if looked[col] {
				c.report(RuleLookup, fin, "aggregate %s reads lookup column %q, which its partial below the lookup joins cannot sum", a.As, col)
			}
		}
	}
}

// statesBelow reports whether n is a partial aggregate or a join, the only
// operators on the path from a final aggregate's exchange down to a partial
// below lookup joins.
func statesBelow(n plan.Node) bool {
	switch n.(type) {
	case *plan.PartialAggNode, *plan.JoinNode:
		return true
	}
	return false
}

// lookupFault says why n, joined on its columns cols, is not a lookup, or
// returns "": a base table, under filters and runtime filters and at most one
// broadcast, that every node holds whole and that is joined on columns
// holding its primary key.
func (c *checker) lookupFault(n plan.Node, cols []string) string {
	x := n
	if b, ok := x.(*plan.BroadcastNode); ok {
		x = b.Child
	}
	var scan *plan.ScanNode
	for scan == nil {
		switch y := x.(type) {
		case *plan.ScanNode:
			scan = y
		case *plan.FilterNode:
			x = y.Child
		case *plan.RuntimeFilterNode:
			x = y.Child
		default:
			return "is no base table"
		}
	}
	if info := c.memo[n]; info == nil || !info.prop.Repl {
		return "is not held whole on every node"
	}
	t := c.cat.Table(scan.Table)
	if t == nil || len(t.PK) == 0 || slices.ContainsFunc(qualify(scan.Alias, t.PK), func(k string) bool { return !slices.Contains(cols, k) }) {
		return "is not joined on its primary key"
	}
	return ""
}
