package check

import (
	"fmt"
	"slices"

	"pref/internal/plan"
)

// Runtime join filters.
//
// A RuntimeFilterNode drops the rows whose key its join's source input does
// not hold. That is sound only if no dropped row could have reached the
// join's output: the filtered column must travel up to the join unchanged
// and be the join's key on the input it enters, and that input must be one
// the join type lets shrink — not the source, which runs first and builds
// the filter, and never the left input of an Anti or LeftOuter join, whose
// every row decides an output row. checkTransfers re-proves this for every
// filter, climbing from the filter to its join.
//
// A filter may also be a fork (plan's equiv.go): it filters a column k′
// that an inner join X below the join equates with the join's key k, by a
// key pair or by a top-level `=` conjunct of X's residual. Every row X emits
// holds one value in both, so the climb tracks the set of columns that hold
// the filtered value: it starts as f's column, loses each column an
// operator does not carry up unchanged, and gains, at an inner join only,
// every column that join equates with one it holds. The set must still hold
// the join's key on arrival.
//
// A local filter probes on each node only the filter of that node's source
// partition. That holds every key its rows can meet at the join only if no
// exchange moves them on the way there, or if every source partition holds
// all of the source's rows; the climb re-proves one or the other, over the
// whole way up, forks included.

// checkTransfers walks the subtree at n with the operators above it.
func (c *checker) checkTransfers(n plan.Node, above []plan.Node) {
	if f, ok := n.(*plan.RuntimeFilterNode); ok {
		c.checkTransfer(f, above)
	}
	above = append(above, n)
	for _, k := range n.Children() {
		c.checkTransfers(k, above)
	}
}

// checkTransfer climbs from f towards its join: every operator on the way
// must carry a column holding f's value up unchanged.
func (c *checker) checkTransfer(f *plan.RuntimeFilterNode, above []plan.Node) {
	below, cols := plan.Node(f), []string{f.Col}
	for i := len(above) - 1; i >= 0; i-- {
		p := above[i]
		if p == f.From {
			c.checkTarget(f, below, cols)
			return
		}
		if f.Local && isExchange(p) && !c.sourceReplicated(f, map[plan.Node]bool{}) {
			c.report(RuleTransfer, f, "is local, but reaches its join through an exchange: %s", p)
			return
		}
		var kept []string
		why := ""
		for _, col := range cols {
			if w := blocks(p, below, col); w == "" {
				kept = append(kept, col)
			} else if why == "" {
				why = w
			}
		}
		if len(kept) == 0 {
			c.report(RuleTransfer, f, "reaches its join through %s: %s", why, p)
			return
		}
		cols, below = equated(p, kept), p
	}
	c.report(RuleTransfer, f, "its join %v is not above it", f.From)
}

// equated returns cols with every column the inner join p equates with one
// of them added: through a key pair or a top-level `=` conjunct of its
// residual. Any other operator adds none.
func equated(p plan.Node, cols []string) []string {
	j, ok := p.(*plan.JoinNode)
	if !ok || j.Type != plan.Inner {
		return cols
	}
	pairs := plan.ColumnEqualities(j.Residual)
	for i := range j.LeftCols {
		pairs = append(pairs, [2]string{j.LeftCols[i], j.RightCols[i]})
	}
	for grown := true; grown; {
		grown = false
		for _, eq := range pairs {
			for k := range 2 {
				if slices.Contains(cols, eq[k]) && !slices.Contains(cols, eq[1-k]) {
					cols, grown = append(cols, eq[1-k]), true
				}
			}
		}
	}
	return cols
}

// blocks says why p does not carry col up from its input below unchanged,
// or returns "" when it does.
func blocks(p, below plan.Node, col string) string {
	switch p := p.(type) {
	case *plan.FilterNode, *plan.RuntimeFilterNode, *plan.DistinctPrefNode,
		*plan.RepartitionNode, *plan.BroadcastNode:
		return ""
	case *plan.ProjectNode:
		for i, name := range p.Names {
			if c, ok := plan.ColName(p.Exprs[i]); ok && name == col && c == col {
				return ""
			}
		}
		return "a projection that does not keep the column"
	case *plan.JoinNode:
		if below == p.Left || p.Type == plan.Inner {
			return ""
		}
		return fmt.Sprintf("the right input of a %v join", p.Type)
	case *plan.AggregateNode:
		return groupsBy(p.GroupBy, col)
	case *plan.PartialAggNode:
		return groupsBy(p.GroupBy, col)
	case *plan.FinalAggNode:
		return groupsBy(p.GroupBy, col)
	}
	return "an operator that does not pass its rows on"
}

func groupsBy(groupBy []string, col string) string {
	if slices.Contains(groupBy, col) {
		return ""
	}
	return "an aggregate that does not group by the column"
}

// checkTarget holds f, reached from j's input below with its value in the
// columns cols, to being j's filter of that input.
func (c *checker) checkTarget(f *plan.RuntimeFilterNode, below plan.Node, cols []string) {
	j := f.From
	side, keys := plan.LeftSide, j.LeftCols
	if below == j.Right {
		side, keys = plan.RightSide, j.RightCols
	}
	switch {
	case j.Source == plan.NoSide:
		c.report(RuleTransfer, f, "its join builds no filter")
	case side == j.Source:
		c.report(RuleTransfer, f, "sits on its join's source input, which builds the filter")
	case side == plan.LeftSide && (j.Type == plan.Anti || j.Type == plan.LeftOuter):
		c.report(RuleTransfer, f, "sits on the left input of a %v join, which may only filter its right", j.Type)
	case len(keys) != 1 || !slices.Contains(cols, keys[0]):
		c.report(RuleTransfer, f, "filters %q, but its join's keys on that input are %v", f.Col, keys)
	}
}

func isExchange(n plan.Node) bool {
	switch n.(type) {
	case *plan.RepartitionNode, *plan.BroadcastNode, *plan.GatherNode, *plan.DistinctByValueNode:
		return true
	}
	return false
}

// sourceReplicated reports whether every partition of f's source input holds
// all of its rows, so that the filter any one of them builds holds every
// key. known memoizes the answer per filter; a filter inside its own source
// is not.
func (c *checker) sourceReplicated(f *plan.RuntimeFilterNode, known map[plan.Node]bool) bool {
	if v, ok := known[f]; ok {
		return v
	}
	known[f] = false
	j := f.From
	if j == nil || j.Source == plan.NoSide || len(j.LeftCols) != 1 {
		return false
	}
	src, _ := j.SourceInput()
	known[f] = c.replicated(src, known)
	return known[f]
}

// replicated reports whether every partition of the subtree at n holds the
// same rows: its content is replicated, and no local filter in it above the
// last broadcast probes a source that is not.
func (c *checker) replicated(n plan.Node, known map[plan.Node]bool) bool {
	if in := c.memo[n]; in == nil || !in.contentRepl {
		return false
	}
	var thinned func(plan.Node) bool
	thinned = func(n plan.Node) bool {
		switch n := n.(type) {
		case *plan.BroadcastNode:
			return false // every node receives all of its input
		case *plan.RuntimeFilterNode:
			if n.Local && !c.sourceReplicated(n, known) {
				return true
			}
		}
		for _, k := range n.Children() {
			if thinned(k) {
				return true
			}
		}
		return false
	}
	return !thinned(n)
}
