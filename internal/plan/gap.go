package plan

import (
	"math"
	"strings"

	"pref/internal/catalog"
)

// Date-gap windows.
//
// A foreign key may declare date gaps (catalog.DateGap): a referencing row's
// date lies within fixed numbers of days of the date of the row it
// references, and the write path keeps that true. So when a join pairs
// exactly that key and one input, the source, reaches it bounded by a literal
// range [lo, hi] on its gapped date, every row of the other input, the
// partner, that can meet a source row is dated in a window: a parent in
// [lo − Max, hi − Min], a child in [lo + Min, hi + Max]. An open side of the
// range leaves that side of the window open. This is "Predicate Transfer"
// (PAPERS.md) at plan time, driven by a declared inter-table constraint.
//
// placeWindows merges each window into the Filter of the stack of filters
// that already sits directly over the partner's scan, as conjuncts closing
// its predicate, and records it on that filter (FilterNode.Windows). It
// never adds an operator, and runs after the transfer pass, the sink and the
// lowering have chosen, so none of their choices moves; it reads no
// statistics. A window is placed only where all of these hold:
//
//   - the join is an inner or semi equi-join on one key pair, exactly the
//     foreign key's columns;
//   - the source's key column reaches the join unchanged from its base scan
//     (passDown), and the literal's filter sits on that way with its date
//     carried unchanged from the same scan, so it bounds every row the source
//     feeds to the join;
//   - the partner's key column reaches the join unchanged from its scan
//     (passDown: an aggregate only if it groups by the key), so a row the
//     window drops could only ever have met the join under a key the source
//     does not hold;
//   - no exact runtime filter from the same join already reaches the partner.
//
// Windows are derived from the plan as the rewrite left it, before any is
// merged, so none rests on another; internal/check re-proves each one.

// A Window is the range of dates column Col of a filter's rows may hold to
// meet Join's other input, by a declared date gap. Lo is math.MinInt64 and Hi
// math.MaxInt64 where that side adds no conjunct.
type Window struct {
	Join   *JoinNode
	Col    string
	Lo, Hi int64
}

// Conjuncts returns the comparisons the window adds to its filter's
// predicate, in order: Col >= Lo and Col <= Hi, each where that side is set.
func (w Window) Conjuncts() []BoolExpr {
	var out []BoolExpr
	if w.Lo != math.MinInt64 {
		out = append(out, Ge(Col(w.Col), Lit(w.Lo)))
	}
	if w.Hi != math.MaxInt64 {
		out = append(out, Le(Col(w.Col), Lit(w.Hi)))
	}
	return out
}

// A gapEdge is one declared date gap seen from one input of a join on its
// foreign key: a target row dated tdate meets only source rows whose sdate
// lies lo to hi days before it.
type gapEdge struct {
	tdate, sdate string
	lo, hi       int64
}

// gapEdges returns the declared date gaps of the single-column foreign key a
// join pairing table ttbl's column tcol with table stbl's column scol walks,
// oriented from the source to the target: a child's date lies within the gap
// after its parent's, a parent's within the gap before its children's.
func gapEdges(cat *catalog.Schema, ttbl, tcol, stbl, scol string) []gapEdge {
	var out []gapEdge
	for _, fk := range cat.FKs {
		if len(fk.FromCols) != 1 {
			continue
		}
		child := fk.FromTable == ttbl && fk.FromCols[0] == tcol && fk.ToTable == stbl && fk.ToCols[0] == scol
		parent := fk.ToTable == ttbl && fk.ToCols[0] == tcol && fk.FromTable == stbl && fk.FromCols[0] == scol
		for _, g := range fk.Gaps {
			if child {
				out = append(out, gapEdge{g.ChildDate, g.ParentDate, g.Min, g.Max})
			}
			if parent {
				out = append(out, gapEdge{g.ParentDate, g.ChildDate, -g.Max, -g.Min})
			}
		}
	}
	return out
}

// shift moves a closed range [lo, hi] of source dates to the window of
// target dates the edge allows, saturating: an open side (math.MinInt64 or
// math.MaxInt64) stays open, and a side past either end of int64 opens.
func (e gapEdge) shift(lo, hi int64) (int64, int64) {
	wlo, whi := int64(math.MinInt64), int64(math.MaxInt64)
	if lo != math.MinInt64 {
		if s, ok := addDays(lo, e.lo); ok {
			wlo = s
		}
	}
	if hi != math.MaxInt64 {
		if s, ok := addDays(hi, e.hi); ok {
			whi = s
		}
	}
	return wlo, whi
}

// addDays returns d + n, or false when the sum leaves (MinInt64, MaxInt64).
func addDays(d, n int64) (int64, bool) {
	s := d + n
	if n > 0 && s < d || n < 0 && s > d || s == math.MinInt64 || s == math.MaxInt64 {
		return 0, false
	}
	return s, true
}

// placeWindows derives every window the plan at root allows and merges each
// into its partner's filter stack.
func (r *Rewriter) placeWindows(root Node) {
	type merge struct {
		f *FilterNode
		w Window
	}
	var merges []merge
	var visit func(Node)
	visit = func(n Node) {
		if j, ok := n.(*JoinNode); ok && (j.Type == Inner || j.Type == Semi) && len(j.LeftCols) == 1 {
			for _, partner := range []Side{LeftSide, RightSide} {
				for _, w := range r.windows(j, partner) {
					merges = append(merges, merge{w.f, w.Window})
				}
			}
		}
		for _, c := range n.Children() {
			visit(c)
		}
	}
	visit(root)
	for _, m := range merges {
		// A window merged earlier may already bound the column as tightly.
		if lo, hi, _, ok := LiteralRange(m.f.Pred, m.w.Col); ok {
			if m.w.Lo <= lo {
				m.w.Lo = math.MinInt64
			}
			if m.w.Hi >= hi {
				m.w.Hi = math.MaxInt64
			}
		}
		if c := m.w.Conjuncts(); len(c) > 0 {
			m.f.Pred = And(append([]BoolExpr{m.f.Pred}, c...)...)
			m.f.Windows = append(m.f.Windows, m.w)
		}
	}
}

// placed is a window and the filter it merges into.
type placed struct {
	f *FilterNode
	Window
}

// windows returns the windows j allows on its input partner, one per date
// column of the partner's scan they bound, each with the Filter of the stack
// over that scan it merges into.
func (r *Rewriter) windows(j *JoinNode, partner Side) []placed {
	target, tkey, source, skey := j.Right, j.RightCols[0], j.Left, j.LeftCols[0]
	if partner == LeftSide {
		target, tkey, source, skey = j.Left, j.LeftCols[0], j.Right, j.RightCols[0]
	}
	tpath, tscan := r.keyPath(target, tkey)
	spath, sscan := r.keyPath(source, skey)
	if tscan == nil || sscan == nil {
		return nil
	}
	for _, n := range tpath {
		if f, ok := n.(*RuntimeFilterNode); ok && f.From == j {
			return nil // exact already: it drops every row the window would
		}
	}
	var stack []*FilterNode
	for i := len(tpath) - 2; i >= 0; i-- {
		if f, ok := tpath[i].(*FilterNode); ok {
			stack = append(stack, f)
		} else if _, ok := tpath[i].(*RuntimeFilterNode); !ok {
			break
		}
	}
	if len(stack) == 0 {
		return nil
	}
	var out []placed
	for _, e := range gapEdges(r.Schema, tscan.Table, baseCol(tkey, tscan), sscan.Table, baseCol(skey, sscan)) {
		lo, hi, ok := r.boundOnPath(spath, Qualify(sscan.Alias, e.sdate))
		if !ok || lo > hi {
			continue
		}
		w := Window{Join: j, Col: Qualify(tscan.Alias, e.tdate)}
		w.Lo, w.Hi = e.shift(lo, hi)
		if w.Lo == math.MinInt64 && w.Hi == math.MaxInt64 {
			continue
		}
		i := indexOfWindow(out, w.Col)
		if i < 0 {
			f := stack[0] // the lowest Filter, unless one already bounds the column
			for _, s := range stack {
				if _, _, _, ok := LiteralRange(s.Pred, w.Col); ok {
					f = s
					break
				}
			}
			out = append(out, placed{f, w})
			continue
		}
		out[i].Lo, out[i].Hi = max(out[i].Lo, w.Lo), min(out[i].Hi, w.Hi)
	}
	return out
}

func indexOfWindow(ws []placed, col string) int {
	for i, w := range ws {
		if w.Col == col {
			return i
		}
	}
	return -1
}

// keyPath follows passDown from n as deep as the key column col passes
// unchanged and returns the operators on the way, n first, when it ends at
// the scan col belongs to, and that scan; nil otherwise.
func (r *Rewriter) keyPath(n Node, col string) ([]Node, *ScanNode) {
	path := []Node{n}
	for next := r.passDown(n, col); next != nil; next = r.passDown(n, col) {
		n = *next
		path = append(path, n)
	}
	scan, ok := n.(*ScanNode)
	if !ok || !strings.HasPrefix(col, scan.Alias+".") {
		return nil, nil
	}
	return path, scan
}

// baseCol is the scan's table column a qualified name of its output names.
func baseCol(name string, scan *ScanNode) string { return name[len(scan.Alias)+1:] }

// boundOnPath intersects the literal ranges on date of the Filters on path,
// a keyPath, below which date too passes unchanged from the scan: every row
// path's top emits was dated in that range. ok is false when no such filter
// bounds date.
func (r *Rewriter) boundOnPath(path []Node, date string) (lo, hi int64, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	for i := len(path) - 2; i >= 0; i-- {
		next := r.passDown(path[i], date)
		if next == nil || *next != path[i+1] {
			break // date does not come unchanged from the scan above here
		}
		if f, isFilter := path[i].(*FilterNode); isFilter {
			if flo, fhi, _, found := LiteralRange(f.Pred, date); found {
				lo, hi, ok = max(lo, flo), min(hi, fhi), true
			}
		}
	}
	return lo, hi, ok
}
