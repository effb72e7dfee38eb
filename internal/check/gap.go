package check

import (
	"math"
	"strings"

	"pref/internal/plan"
)

// Date-gap windows.
//
// A plan.Window narrows a filter over a base-table scan to the dates its rows
// may hold to meet its join's other input, by a date gap the catalog
// declares on the foreign key the join pairs. That drops no row the join
// needs only if the window is no narrower than the gap and the other input's
// literal date bounds imply. checkWindows re-proves every window by its own
// climb, not the rewrite's: from the filter up to its join every operator
// must carry the join's key up unchanged, with no exact runtime filter from
// that join on the way; from the join down the other input, the key must
// come unchanged from a base scan, and the literal bounds are read only from
// filters on that way below which the gapped date too comes unchanged from
// the scan, and only from their own conjuncts, never a window: no window
// rests on another.

// checkWindows walks the subtree at n with the operators above it.
func (c *checker) checkWindows(n plan.Node, above []plan.Node) {
	if f, ok := n.(*plan.FilterNode); ok && len(f.Windows) > 0 {
		c.checkWindowFilter(f, above)
	}
	above = append(above, n)
	for _, k := range n.Children() {
		c.checkWindows(k, above)
	}
}

// checkWindowFilter holds f's predicate to closing with its windows'
// conjuncts, f to sitting in a filter stack over a scan, and each window to
// its join.
func (c *checker) checkWindowFilter(f *plan.FilterNode, above []plan.Node) {
	var tail []plan.BoolExpr
	for _, w := range f.Windows {
		tail = append(tail, w.Conjuncts()...)
	}
	conj := plan.Conjuncts(f.Pred)
	if len(conj) <= len(tail) || !sameExprs(conj[len(conj)-len(tail):], tail) {
		c.report(RuleGap, f, "its predicate does not close with its windows' conjuncts %v", tail)
		return
	}
	scan := stackScan(f)
	if scan == nil {
		c.report(RuleGap, f, "carries a window but is no filter stack over a scan")
		return
	}
	for _, w := range f.Windows {
		c.checkWindow(f, scan, w, above)
	}
}

// stackScan returns the scan below the chain of filters under f, or nil.
func stackScan(f *plan.FilterNode) *plan.ScanNode {
	for n := f.Child; ; {
		switch x := n.(type) {
		case *plan.ScanNode:
			return x
		case *plan.FilterNode:
			n = x.Child
		case *plan.RuntimeFilterNode:
			n = x.Child
		default:
			return nil
		}
	}
}

func sameExprs(a, b []plan.BoolExpr) bool {
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// checkWindow re-proves window w of filter f over scan.
func (c *checker) checkWindow(f *plan.FilterNode, scan *plan.ScanNode, w plan.Window, above []plan.Node) {
	j := w.Join
	bad := func(format string, args ...any) {
		c.report(RuleGap, f, "window on %s from %v: "+format, append([]any{w.Col, j}, args...)...)
	}
	if j == nil || (j.Type != plan.Inner && j.Type != plan.Semi) || len(j.LeftCols) != 1 {
		bad("its join is no inner or semi equi-join on one key pair")
		return
	}
	// The way up: the operators between f and j, nearest first.
	var way []plan.Node
	i := len(above) - 1
	for ; i >= 0 && above[i] != j; i-- {
		way = append(way, above[i])
	}
	if i < 0 {
		bad("its join is not above it")
		return
	}
	under := plan.Node(f)
	if len(way) > 0 {
		under = way[len(way)-1]
	}
	tkey, skey, source := j.LeftCols[0], j.RightCols[0], j.Right
	if under == j.Right {
		tkey, skey, source = j.RightCols[0], j.LeftCols[0], j.Left
	}
	if !strings.HasPrefix(tkey, scan.Alias+".") || !strings.HasPrefix(w.Col, scan.Alias+".") {
		bad("its join's key %s on that input is not a column of %s", tkey, scan)
		return
	}
	for n := f.Child; n != plan.Node(scan); n = n.Children()[0] {
		if rf, ok := n.(*plan.RuntimeFilterNode); ok && rf.From == j {
			bad("an exact runtime filter from its join already reaches the input")
			return
		}
	}
	below := plan.Node(f)
	for _, p := range way {
		if why := blocks(p, below, tkey); why != "" {
			bad("the key %s reaches its join through %s: %s", tkey, why, p)
			return
		}
		if rf, ok := p.(*plan.RuntimeFilterNode); ok && rf.From == j {
			bad("an exact runtime filter from its join already reaches the input")
			return
		}
		below = p
	}
	// The way down the other input, to the scan its key comes from.
	down := []plan.Node{source}
	for k := c.carrier(source, skey); k != nil; k = c.carrier(k, skey) {
		down = append(down, k)
	}
	sscan, ok := down[len(down)-1].(*plan.ScanNode)
	if !ok || !strings.HasPrefix(skey, sscan.Alias+".") {
		bad("the other input's key %s comes from no base scan unchanged", skey)
		return
	}
	tcol, scol, date := tkey[len(scan.Alias)+1:], skey[len(sscan.Alias)+1:], w.Col[len(scan.Alias)+1:]
	lo, hi, derived := int64(math.MinInt64), int64(math.MaxInt64), false
	for _, fk := range c.cat.FKs {
		if len(fk.FromCols) != 1 || !fk.ToIsUnique {
			continue
		}
		child := fk.FromTable == scan.Table && fk.FromCols[0] == tcol && fk.ToTable == sscan.Table && fk.ToCols[0] == scol
		parent := fk.ToTable == scan.Table && fk.ToCols[0] == tcol && fk.FromTable == sscan.Table && fk.FromCols[0] == scol
		for _, g := range fk.Gaps {
			var sdate string
			var dlo, dhi int64 // days from the source's date to the partner's
			switch {
			case child && g.ChildDate == date:
				sdate, dlo, dhi = g.ParentDate, g.Min, g.Max
			case parent && g.ParentDate == date:
				sdate, dlo, dhi = g.ChildDate, -g.Max, -g.Min
			default:
				continue
			}
			blo, bhi, found := c.boundBelow(down, plan.Qualify(sscan.Alias, sdate))
			if !found {
				continue
			}
			derived = true
			lo, hi = max(lo, shiftDays(blo, dlo, math.MinInt64)), min(hi, shiftDays(bhi, dhi, math.MaxInt64))
		}
	}
	switch {
	case !derived:
		bad("no declared gap of a foreign key %s = %s and no literal bound on the other input implies it", tkey, skey)
	case w.Lo != math.MinInt64 && w.Lo > lo || w.Hi != math.MaxInt64 && w.Hi < hi:
		bad("[%s, %s] is narrower than the [%s, %s] the gaps derive", day(w.Lo), day(w.Hi), day(lo), day(hi))
	}
}

// day renders a window bound, open ones as "open".
func day(d int64) string {
	if d == math.MinInt64 || d == math.MaxInt64 {
		return "open"
	}
	return plan.Lit(d).String()
}

// shiftDays returns d + n, or open, the open bound, where d is open or the
// sum leaves the range strictly inside math.MinInt64 and math.MaxInt64.
func shiftDays(d, n, open int64) int64 {
	if d == math.MinInt64 || d == math.MaxInt64 {
		return open
	}
	if n > 0 && d > math.MaxInt64-1-n || n < 0 && d < math.MinInt64+1-n {
		return open
	}
	return d + n
}

// carrier returns the input of n that carries column col up through n
// unchanged, or nil.
func (c *checker) carrier(n plan.Node, col string) plan.Node {
	for _, k := range n.Children() {
		if c.rw.Schemas[k].Index(col) >= 0 && blocks(n, k, col) == "" {
			return k
		}
	}
	return nil
}

// boundBelow intersects the literal bounds on date of the Filters on down,
// a way from a join input to a scan, below which date too comes unchanged
// from the scan, reading each filter's own conjuncts, not its windows'.
func (c *checker) boundBelow(down []plan.Node, date string) (lo, hi int64, found bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	for k := len(down) - 2; k >= 0; k-- {
		if c.rw.Schemas[down[k+1]].Index(date) < 0 || blocks(down[k], down[k+1], date) != "" {
			break
		}
		f, ok := down[k].(*plan.FilterNode)
		if !ok {
			continue
		}
		conj := plan.Conjuncts(f.Pred)
		for _, w := range f.Windows {
			conj = conj[:max(0, len(conj)-len(w.Conjuncts()))]
		}
		if len(conj) == 0 {
			continue
		}
		if flo, fhi, _, ok := plan.LiteralRange(plan.And(conj...), date); ok {
			lo, hi, found = max(lo, flo), min(hi, fhi), true
		}
	}
	return lo, hi, found
}
