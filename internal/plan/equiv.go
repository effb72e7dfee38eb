package plan

import (
	"slices"

	"pref/internal/catalog"
	"pref/internal/value"
)

// Join equivalences.
//
// Every row an inner equi-join emits holds equal values in each of its key
// pairs, and in the two columns of each `=` conjunct at the top of its
// residual. Two rules use these equalities to move predicates where the
// query builder did not put them ("Predicate Transfer", PAPERS.md).
//
// Residuals bind at the lowest join. Before the bottom-up rewrite, each
// top-level conjunct of an inner join's residual moves down to the lowest
// inner join where it still reads both inputs. At an inner join J it enters
// the input s whose output holds every column it reads once the columns only
// the other input holds are rewritten through J's key pairs: J's output rows
// hold equal values there, and the columns of s reach J's output unchanged,
// so the rewritten conjunct keeps exactly the rows of s whose every J
// partner the original keeps. It crosses only inner joins, filters,
// projections that keep its columns and the left input of a semi or anti
// join, each of which hands its input's rows up unchanged or not at all;
// never a semi or anti join's right input, whose columns do not reach the
// output, nor either input of a left outer join, which null-extends rows a
// lower predicate would have dropped. A substitution is made only between
// columns of one kind other than a string: equal payloads then mean equal
// values, while a string literal is a code of its own column's dictionary.
// It stops at the join where neither input can take it, so TPC-H's Q7
// tests its nation pair on s.nationkey and c.nationkey where orders meet
// customer, not after both nation joins.
//
// Runtime filters fork onto equated columns (transfer.go). A filter on key k
// from join j keeps the rows whose k is among j's source keys; an inner join
// X on k's passDown path that equates k with a column k′ of its other input
// emits only rows whose k′ equals their k, and k reaches j unchanged from
// there, so a row of that other input whose k′ is no source key cannot
// reach j's output either. The fork is a filter on k′ in X's other input,
// from j. It is local only: its source is replicated, or no exchange lies
// between it and j, so the rows of partition p meet only source partition
// p's keys at j. Like every local filter it needs statistics and is placed
// where it is estimated to save the most per-node rows, if that saves any.
// TPC-H's Q5 filters s.nationkey by ASIA's nations, and c.nationkey =
// s.nationkey forks that filter onto customer.

// pushResiduals returns the logical plan n with every top-level conjunct of
// an inner join's residual bound at the lowest join the rule above lets it
// reach, its columns resolved against the catalog cat. It copies every
// node on a changed path and leaves n as it was.
func pushResiduals(n Node, cat *catalog.Schema) Node {
	return (&residuals{cat: cat, schemas: map[Node]Schema{}}).push(n)
}

// residuals is one pass of pushResiduals. It memoizes the output schema of
// each logical node it reads.
type residuals struct {
	cat     *catalog.Schema
	schemas map[Node]Schema
}

func (p *residuals) push(n Node) Node {
	switch n := n.(type) {
	case *FilterNode:
		if c := p.push(n.Child); c != n.Child {
			return &FilterNode{Child: c, Pred: n.Pred}
		}
	case *ProjectNode:
		if c := p.push(n.Child); c != n.Child {
			cp := *n
			cp.Child = c
			return &cp
		}
	case *AggregateNode:
		if c := p.push(n.Child); c != n.Child {
			cp := *n
			cp.Child = c
			return &cp
		}
	case *TopKNode:
		if c := p.push(n.Child); c != n.Child {
			cp := *n
			cp.Child = c
			return &cp
		}
	case *JoinNode:
		j := n
		if l, rt := p.push(n.Left), p.push(n.Right); l != n.Left || rt != n.Right {
			cp := *n
			cp.Left, cp.Right = l, rt
			j = &cp
		}
		if j.Type != Inner || j.Residual == nil {
			return j
		}
		bare := *j
		bare.Residual = nil
		out, all := &bare, conjuncts(j.Residual)
		var stay []BoolExpr
		for _, c := range all {
			if down := p.below(out, c); down != nil {
				out = down
			} else {
				stay = append(stay, c)
			}
		}
		if len(stay) == len(all) {
			return j
		}
		out.Residual = and(stay...)
		return out
	}
	return n
}

// below returns a copy of the inner join j with the conjunct c, which binds
// over j's output, bound inside one of j's inputs, or nil when neither
// takes it.
func (p *residuals) below(j *JoinNode, c BoolExpr) *JoinNode {
	for _, s := range []Side{LeftSide, RightSide} {
		cs, ok := p.onto(c, j, s)
		if !ok {
			continue
		}
		if in, ok := p.into(j.input(s), cs); ok {
			cp := *j
			if s == LeftSide {
				cp.Left = in
			} else {
				cp.Right = in
			}
			return &cp
		}
	}
	return nil
}

// into returns a copy of n with the conjunct c, which binds over n's
// output, bound at the lowest inner join it reaches, and false when it
// reaches none.
func (p *residuals) into(n Node, c BoolExpr) (Node, bool) {
	switch n := n.(type) {
	case *FilterNode:
		if in, ok := p.into(n.Child, c); ok {
			return &FilterNode{Child: in, Pred: n.Pred}, true
		}
	case *ProjectNode:
		if keepsCols(n, c.AppendCols(nil)) {
			if in, ok := p.into(n.Child, c); ok {
				cp := *n
				cp.Child = in
				return &cp, true
			}
		}
	case *JoinNode:
		switch n.Type {
		case Inner:
			if down := p.below(n, c); down != nil {
				return down, true
			}
			cp := *n
			cp.Residual = and(n.Residual, c)
			return &cp, true
		case Semi, Anti:
			if in, ok := p.into(n.Left, c); ok {
				cp := *n
				cp.Left = in
				return &cp, true
			}
		}
	}
	return n, false
}

// onto rewrites the conjunct c, which binds over the inner join j's output,
// to bind over j's input on side s: each column it reads that the input
// lacks becomes the input's column a key pair of j equates it with, of the
// same kind and not a string. False when some column has none.
func (p *residuals) onto(c BoolExpr, j *JoinNode, s Side) (BoolExpr, bool) {
	in, other := p.schema(j.Left), p.schema(j.Right)
	from, to := j.RightCols, j.LeftCols
	if s == RightSide {
		in, other = other, in
		from, to = to, from
	}
	m := map[string]string{}
	for _, col := range c.AppendCols(nil) {
		if in.Index(col) >= 0 {
			continue
		}
		i, o := slices.Index(from, col), other.Index(col)
		if i < 0 || o < 0 || in.Index(to[i]) < 0 {
			return nil, false
		}
		if k := other[o].Kind; k == value.Str || k != in[in.Index(to[i])].Kind {
			return nil, false
		}
		m[col] = to[i]
	}
	if len(m) == 0 {
		return c, true
	}
	return renameCols(c, m), true
}

// keepsCols reports whether the projection p passes every column of cols
// on under its own name.
func keepsCols(p *ProjectNode, cols []string) bool {
	for _, col := range cols {
		kept := false
		for i, name := range p.Names {
			if i >= len(p.Exprs) {
				break
			}
			if c, ok := ColName(p.Exprs[i]); ok && name == col && c == col {
				kept = true
			}
		}
		if !kept {
			return false
		}
	}
	return true
}

// schema returns the output schema of the logical plan n, nil where it
// cannot tell (the rewrite proper reports why).
func (p *residuals) schema(n Node) Schema {
	if s, ok := p.schemas[n]; ok {
		return s
	}
	var out Schema
	switch n := n.(type) {
	case *ScanNode:
		if t := p.cat.Table(n.Table); t != nil {
			out = make(Schema, len(t.Columns))
			for i, c := range t.Columns {
				out[i] = Field{Name: Qualify(n.Alias, c.Name), Kind: c.Kind}
			}
		}
	case *FilterNode:
		out = p.schema(n.Child)
	case *TopKNode:
		out = p.schema(n.Child)
	case *ProjectNode:
		in := p.schema(n.Child)
		for i, name := range n.Names {
			if i < len(n.Exprs) {
				out = append(out, Field{Name: name, Kind: n.Exprs[i].Kind(in)})
			}
		}
	case *JoinNode:
		out = p.schema(n.Left)
		if n.Type != Semi && n.Type != Anti {
			out = out.Concat(p.schema(n.Right))
		}
	case *AggregateNode:
		in := p.schema(n.Child)
		for _, g := range n.GroupBy {
			if i := in.Index(g); i >= 0 {
				out = append(out, in[i])
			}
		}
		for _, a := range n.Aggs {
			out = append(out, Field{Name: a.As, Kind: kindOfAgg(a, in)})
		}
	}
	p.schemas[n] = out
	return out
}
