package check

import "pref/internal/plan"

// Column liveness.
//
// The rewrite's last pass narrows what joins emit and exchanges ship to the
// columns read above them. The bottom-up walk already holds a narrowed
// schema to being an order-preserving subset of the natural one and binds
// every reference against it, so a plan that dropped a column it needs is
// malformed there. This walk is the other direction: it recomputes, top-down
// and from the operators' own fields, which column names are read above each
// operator, and reports a join or exchange that still carries a column
// nothing reads — the way the saving would silently rot.

// reads is the set of column names the operators above some node read.
type reads map[string]bool

// plus returns r extended by cols, leaving r itself — shared by a join's two
// inputs — alone.
func (r reads) plus(cols ...string) reads {
	out := make(reads, len(r)+len(cols))
	for c := range r {
		out[c] = true
	}
	for _, c := range cols {
		out[c] = true
	}
	return out
}

// checkLive walks n's subtree with the columns read above n. An operator
// that copies rows must carry only those; one with no reader at all keeps a
// single column so its rows can still be counted.
func (c *checker) checkLive(n plan.Node, above reads) {
	sch := c.memo[n].sch
	// below is what n asks of its input: for an operator that passes rows
	// on, the columns it carries plus the ones it reads itself.
	carried := func(own ...string) reads { return reads{}.plus(sch.Names()...).plus(own...) }
	switch n.(type) {
	case *plan.JoinNode, *plan.RepartitionNode, *plan.BroadcastNode, *plan.GatherNode:
		for _, f := range sch {
			if len(sch) > 1 && !above[f.Name] {
				c.report(RuleDeadColumn, n, "carries column %q, which no operator above reads", f.Name)
			}
		}
	}
	switch n := n.(type) {
	case *plan.FilterNode:
		c.checkLive(n.Child, above.plus(n.Pred.AppendCols(nil)...))
	case *plan.RuntimeFilterNode:
		c.checkLive(n.Child, above.plus(n.Col))
	case *plan.DistinctPrefNode:
		c.checkLive(n.Child, above.plus(n.DupCols...))
	case *plan.TopKNode:
		c.checkLive(n.Child, carried()) // compares whole rows
	case *plan.DistinctByValueNode:
		c.checkLive(n.Child, carried())
	case *plan.ProjectNode:
		var cols []string
		for _, e := range n.Exprs {
			cols = e.AppendCols(cols)
		}
		c.checkLive(n.Child, reads{}.plus(cols...))
	case *plan.JoinNode:
		own := append(append([]string(nil), n.LeftCols...), n.RightCols...)
		if n.Residual != nil {
			own = n.Residual.AppendCols(own)
		}
		below := carried(own...)
		c.checkLive(n.Left, below)
		c.checkLive(n.Right, below)
	case *plan.RepartitionNode:
		c.checkLive(n.Child, carried(n.Cols...).plus(n.DupCols...))
	case *plan.BroadcastNode:
		c.checkLive(n.Child, carried(n.DupCols...))
	case *plan.GatherNode:
		c.checkLive(n.Child, carried())
	case *plan.AggregateNode:
		c.checkLive(n.Child, aggReads(n.GroupBy, n.Aggs))
	case *plan.PartialAggNode:
		c.checkLive(n.Child, aggReads(n.GroupBy, n.Aggs))
	case *plan.FinalAggNode:
		// Merges the group-by and state columns, and nothing else of what
		// lookup joins above its partial add.
		c.checkLive(n.Child, mergeReads(n.GroupBy, n.Aggs))
	}
}

// mergeReads is what a final aggregate reads: its group-by columns and each
// aggregate's state column(s), an AVG's sum and count.
func mergeReads(groupBy []string, aggs []plan.AggExpr) reads {
	cols := append([]string(nil), groupBy...)
	for _, a := range aggs {
		if a.Fn == plan.AvgFn {
			cols = append(cols, a.As+"$sum", a.As+"$cnt")
		} else {
			cols = append(cols, a.As)
		}
	}
	return reads{}.plus(cols...)
}

func aggReads(groupBy []string, aggs []plan.AggExpr) reads {
	cols := append([]string(nil), groupBy...)
	for _, a := range aggs {
		if a.Arg != nil {
			cols = a.Arg.AppendCols(cols)
		}
	}
	return reads{}.plus(cols...)
}
