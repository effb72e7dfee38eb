package plan

import "fmt"

// Column pruning.
//
// The rewrite proper decides where rows go; this pass, run last, decides
// how wide they travel. It walks the finished physical plan once, top-down,
// carrying the set of column names the operators above read, and narrows
// the recorded schema of every operator that copies rows — Join,
// Repartition, Broadcast, Gather, Project — to the columns in that set, in
// their original relative order. The engine's copying operators write
// exactly their recorded schema, so a join emits and an exchange ships only
// what is read above it.
//
// Operators that hand on views of their input — Scan, Filter, RuntimeFilter,
// DistinctPref — keep the table's / their child's schema: a column they pass
// through is a slice header, not a copy, and the copying operator above
// selects from it. TopK breaks ties by the full row and DistinctByValue defines identity
// by every visible column, so pruning beneath either would change which
// rows survive: both read every column of their input.
//
// The pass adds no operator and touches no Prop. A Prop may therefore name a
// hash or placement column the schema no longer carries; that is a fact
// about where rows sit, never resolved against a schema.

// colSet counts, per column name, the operators above a node that read it.
// One set serves a whole walk through one namespace: an operator adds what it
// reads on the way down and takes it back on the way up, so no copy is made
// per node. A projection or an aggregation names its own columns and starts a
// fresh set below itself.
type colSet map[string]int

func newColSet(cols []string) colSet {
	s := make(colSet, len(cols)+8) // room for what the operators below add
	s.add(cols)
	return s
}

func (s colSet) add(cols []string) {
	for _, c := range cols {
		s[c]++
	}
}

func (s colSet) drop(cols []string) {
	for _, c := range cols {
		s[c]--
	}
}

// live returns the columns of sch that are in need, in order. Rows are
// counted by the length of their column vectors, so an operator nobody reads
// a column of (COUNT(*) over a join) keeps its first.
func live(sch Schema, need colSet) Schema {
	at := make([]int, 0, 64) // one map lookup per column; stays on the stack
	for i, f := range sch {
		if need[f.Name] > 0 {
			at = append(at, i)
		}
	}
	switch len(at) {
	case len(sch):
		return sch
	case 0:
		return sch[:1:1]
	}
	out := make(Schema, len(at))
	for i, c := range at {
		out[i] = sch[c]
	}
	return out
}

// pruneColumns narrows the recorded schemas below root; the root's own
// schema is the query's result and is read whole.
func (r *Rewriter) pruneColumns(root Node) {
	r.prune(root, newColSet(r.out.Schemas[root].Names()))
}

// prune narrows n given the columns read above it, walks its inputs with
// what n itself reads added, and returns n's recorded schema.
func (r *Rewriter) prune(n Node, need colSet) Schema {
	schemas := r.out.Schemas
	// reading prunes n's inputs with cols added to need for the walk below,
	// and returns the (last) input's schema.
	reading := func(cols []string, inputs ...Node) Schema {
		need.add(cols)
		var sch Schema
		for _, in := range inputs {
			sch = r.prune(in, need)
		}
		need.drop(cols)
		return sch
	}
	// narrow cuts a copying operator to the columns read above it and returns
	// what it reads itself — including the column it keeps to count rows by
	// when nothing is read, which its input must then supply.
	narrow := func(reads ...[]string) []string {
		schemas[n] = live(schemas[n], need)
		var all []string
		for _, cols := range reads {
			all = append(all, cols...)
		}
		if out := schemas[n]; len(out) == 1 {
			all = append(all, out[0].Name)
		}
		return all
	}
	switch n := n.(type) {
	case *ScanNode:
		// A view of table storage: every stored column, at no cost.
	case *FilterNode:
		schemas[n] = reading(n.Pred.AppendCols(nil), n.Child)
	case *RuntimeFilterNode:
		schemas[n] = reading([]string{n.Col}, n.Child)
	case *DistinctPrefNode:
		schemas[n] = reading(n.DupCols, n.Child)
	case *TopKNode:
		schemas[n] = r.prune(n.Child, newColSet(schemas[n.Child].Names()))
	case *DistinctByValueNode:
		schemas[n] = r.prune(n.Child, newColSet(schemas[n.Child].Names()))
	case *ProjectNode:
		if kept := live(schemas[n], need); len(kept) < len(n.Exprs) {
			// The physical node shares its lists with the logical plan:
			// narrow into fresh ones.
			pos, _ := kept.PositionsIn(schemas[n]) // kept was cut from it
			exprs := make([]ValExpr, len(pos))
			names := make([]string, len(pos))
			for i, at := range pos {
				exprs[i], names[i] = n.Exprs[at], n.Names[at]
			}
			n.Exprs, n.Names, schemas[n] = exprs, names, kept
		}
		var reads []string
		for _, e := range n.Exprs {
			reads = e.AppendCols(reads)
		}
		r.prune(n.Child, newColSet(reads))
	case *JoinNode:
		reads := narrow(n.LeftCols, n.RightCols)
		if n.Residual != nil {
			reads = n.Residual.AppendCols(reads)
		}
		// Names are alias-qualified, so each side finds its own in the set.
		reading(reads, n.Left, n.Right)
	case *RepartitionNode:
		reading(narrow(n.Cols, n.DupCols), n.Child)
	case *BroadcastNode:
		reading(narrow(n.DupCols), n.Child)
	case *GatherNode:
		reading(narrow(), n.Child)
	case *AggregateNode:
		r.prune(n.Child, aggReads(n.GroupBy, n.Aggs))
	case *PartialAggNode:
		r.prune(n.Child, aggReads(n.GroupBy, n.Aggs))
	case *FinalAggNode:
		// Merges the group-by and partial-state columns of its input, which
		// below lookup joins carries their keys too (lookup.go).
		r.prune(n.Child, newColSet(mergeReads(n.GroupBy, n.Aggs)))
	}
	return schemas[n]
}

// aggReads is what an aggregation reads of its input: the group-by columns
// and every aggregate's argument columns. Its own output is all live.
func aggReads(groupBy []string, aggs []AggExpr) colSet {
	return newColSet(aggReadList(groupBy, aggs))
}

// aggReadList lists what an aggregation reads, repeats included.
func aggReadList(groupBy []string, aggs []AggExpr) []string {
	out := append([]string(nil), groupBy...)
	for _, a := range aggs {
		if a.Arg != nil {
			out = a.Arg.AppendCols(out)
		}
	}
	return out
}

// PositionsIn resolves a narrowed schema against the natural schema it was
// cut from: the position in natural of each of s's columns, which must
// appear there in the same relative order.
func (s Schema) PositionsIn(natural Schema) ([]int, error) {
	pos := make([]int, 0, len(s))
	for i, f := range natural {
		if len(pos) < len(s) && s[len(pos)].Name == f.Name {
			pos = append(pos, i)
		}
	}
	if len(pos) != len(s) {
		return nil, fmt.Errorf("plan: schema %v is not an ordered subset of %v", s.Names(), natural.Names())
	}
	return pos, nil
}
