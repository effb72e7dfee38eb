package plan

import (
	"fmt"
	"strings"

	"pref/internal/value"
)

// JoinType distinguishes the join flavors of an SPJA plan.
type JoinType int

// Join flavors.
const (
	Inner JoinType = iota
	LeftOuter
	Semi
	Anti
)

func (j JoinType) String() string {
	return [...]string{"INNER", "LEFT", "SEMI", "ANTI"}[j]
}

// AggFn identifies an aggregate function.
type AggFn int

// Aggregate functions.
const (
	SumFn AggFn = iota
	CountFn
	AvgFn
	MinFn
	MaxFn
	CountDistinctFn
)

func (f AggFn) String() string {
	return [...]string{"SUM", "COUNT", "AVG", "MIN", "MAX", "COUNT_DISTINCT"}[f]
}

// AggExpr is one aggregate of an Aggregate node. Arg may be nil for
// COUNT(*). Null arguments are skipped.
type AggExpr struct {
	Fn  AggFn
	Arg ValExpr
	As  string
}

// Sum builds SUM(expr) AS name.
func Sum(e ValExpr, as string) AggExpr { return AggExpr{SumFn, e, as} }

// Count builds COUNT(*) AS name.
func Count(as string) AggExpr { return AggExpr{CountFn, nil, as} }

// CountCol builds COUNT(expr) AS name (nulls skipped).
func CountCol(e ValExpr, as string) AggExpr { return AggExpr{CountFn, e, as} }

// Avg builds AVG(expr) AS name.
func Avg(e ValExpr, as string) AggExpr { return AggExpr{AvgFn, e, as} }

// Min builds MIN(expr) AS name.
func Min(e ValExpr, as string) AggExpr { return AggExpr{MinFn, e, as} }

// Max builds MAX(expr) AS name.
func Max(e ValExpr, as string) AggExpr { return AggExpr{MaxFn, e, as} }

// CountDistinct builds COUNT(DISTINCT expr) AS name. Exact: its states do
// not merge, so the rewriter co-locates each group's raw rows before
// counting (grouped aggregation), or gathers the deduplicated input for a
// global count.
func CountDistinct(e ValExpr, as string) AggExpr { return AggExpr{CountDistinctFn, e, as} }

// Node is a plan operator, logical or physical. Rewriting (Section 2.2)
// maps a logical SPJA tree onto a physical tree by inserting Repartition,
// Broadcast, and DistinctPref operators.
type Node interface {
	Children() []Node
	String() string
}

// ---- logical operators ----

// ScanNode reads one base table under an alias. Over a PREF-partitioned
// table the scan also exposes the hidden "<alias>.__dup" and
// "<alias>.__hasref" index columns.
type ScanNode struct {
	Table string
	Alias string
	// Prune restricts the scan to the given partitions (nil = all).
	// Set by the rewriter when a filter pins every partitioning column
	// of a hash or hash-equivalent table to constants — the partition
	// pruning the paper names as future work for PREF.
	Prune []int
}

// Scan builds a table scan; an empty alias defaults to the table name.
func Scan(tbl, alias string) *ScanNode {
	if alias == "" {
		alias = tbl
	}
	return &ScanNode{Table: tbl, Alias: alias}
}

func (n *ScanNode) Children() []Node { return nil }
func (n *ScanNode) String() string {
	if n.Prune != nil {
		return fmt.Sprintf("Scan(%s AS %s, prune→%v)", n.Table, n.Alias, n.Prune)
	}
	return fmt.Sprintf("Scan(%s AS %s)", n.Table, n.Alias)
}

// FilterNode applies a selection predicate.
type FilterNode struct {
	Child Node
	Pred  BoolExpr
}

// Filter builds a selection.
func Filter(c Node, p BoolExpr) *FilterNode { return &FilterNode{Child: c, Pred: p} }

func (n *FilterNode) Children() []Node { return []Node{n.Child} }
func (n *FilterNode) String() string   { return "Filter(" + n.Pred.String() + ")" }

// ProjectNode projects (and renames) columns; each output column is a
// scalar expression.
type ProjectNode struct {
	Child Node
	Exprs []ValExpr
	Names []string
}

// Project builds a projection; names and exprs are positionally matched.
func Project(c Node, names []string, exprs []ValExpr) *ProjectNode {
	return &ProjectNode{Child: c, Exprs: exprs, Names: names}
}

// ProjectCols projects existing columns by name.
func ProjectCols(c Node, cols ...string) *ProjectNode {
	exprs := make([]ValExpr, len(cols))
	for i, col := range cols {
		exprs[i] = Col(col)
	}
	return Project(c, cols, exprs)
}

func (n *ProjectNode) Children() []Node { return []Node{n.Child} }
func (n *ProjectNode) String() string   { return "Project(" + strings.Join(n.Names, ",") + ")" }

// Side names one input of a join.
type Side int

// Join inputs.
const (
	NoSide Side = iota
	LeftSide
	RightSide
)

func (s Side) String() string { return [...]string{"none", "left", "right"}[s] }

// JoinNode is an equi-join (possibly with a residual non-equi predicate).
// LeftCols[i] = RightCols[i] are the equi conjuncts. A join with no equi
// conjuncts is a cross/theta join and executes as a broadcast join.
type JoinNode struct {
	Left, Right Node
	Type        JoinType
	LeftCols    []string
	RightCols   []string
	// Residual is an extra predicate evaluated on the concatenated row
	// (nil for pure equi-joins).
	Residual BoolExpr
	// Source is set by the rewrite on a join that fires a runtime filter
	// (transfer.go): the input that runs first and whose keys the filter
	// holds. A RuntimeFilterNode in the other input names this join. NoSide:
	// no filter, and the left input runs first.
	Source Side
}

// Join builds an equi-join on leftCols[i] = rightCols[i].
func Join(l, r Node, t JoinType, leftCols, rightCols []string) *JoinNode {
	return &JoinNode{Left: l, Right: r, Type: t, LeftCols: leftCols, RightCols: rightCols}
}

// SourceInput returns the input a join's runtime filter is built from and
// the key column the filter holds. Only meaningful when Source is set.
func (n *JoinNode) SourceInput() (Node, string) {
	if n.Source == RightSide {
		return n.Right, n.RightCols[0]
	}
	return n.Left, n.LeftCols[0]
}

func (n *JoinNode) Children() []Node { return []Node{n.Left, n.Right} }
func (n *JoinNode) String() string {
	pairs := make([]string, len(n.LeftCols))
	for i := range n.LeftCols {
		pairs[i] = n.LeftCols[i] + "=" + n.RightCols[i]
	}
	s := strings.Join(pairs, " AND ")
	if n.Residual != nil {
		s += "; residual " + n.Residual.String()
	}
	if n.Source != NoSide {
		s += fmt.Sprintf("; %v first", n.Source)
	}
	return fmt.Sprintf("%vJoin(%s)", n.Type, s)
}

// AggregateNode groups by columns and computes aggregates; empty GroupBy
// yields a single global row.
type AggregateNode struct {
	Child   Node
	GroupBy []string
	Aggs    []AggExpr
}

// Aggregate builds a grouped aggregation.
func Aggregate(c Node, groupBy []string, aggs ...AggExpr) *AggregateNode {
	return &AggregateNode{Child: c, GroupBy: groupBy, Aggs: aggs}
}

func (n *AggregateNode) Children() []Node { return []Node{n.Child} }
func (n *AggregateNode) String() string {
	return fmt.Sprintf("Aggregate(by %v, %d aggs)", n.GroupBy, len(n.Aggs))
}

// OrderSpec is one ORDER BY term.
type OrderSpec struct {
	Col  string
	Desc bool
}

// TopKNode orders its input and keeps the first Limit rows (0 = no limit,
// pure ORDER BY). Rows are compared by the order terms, then by the full
// row, making results deterministic. The rewriter executes it as a
// per-partition partial top-k followed by a gathered final pass.
type TopKNode struct {
	Child Node
	Order []OrderSpec
	Limit int
	// final marks the post-gather pass (set by the rewriter).
	Final bool
}

// TopK builds an ORDER BY … LIMIT operator.
func TopK(c Node, limit int, order ...OrderSpec) *TopKNode {
	return &TopKNode{Child: c, Order: order, Limit: limit}
}

func (n *TopKNode) Children() []Node { return []Node{n.Child} }
func (n *TopKNode) String() string {
	terms := make([]string, len(n.Order))
	for i, o := range n.Order {
		terms[i] = o.Col
		if o.Desc {
			terms[i] += " DESC"
		}
	}
	stage := "partial"
	if n.Final {
		stage = "final"
	}
	return fmt.Sprintf("TopK(%s, by %s, limit %d)", stage, strings.Join(terms, ","), n.Limit)
}

// ---- physical operators (inserted by the rewriter) ----

// RepartitionNode re-distributes rows by a hash of the given columns,
// eliminating PREF duplicates (per DupCols) before shipping — exactly the
// paper's re-partitioning operator.
type RepartitionNode struct {
	Child Node
	Cols  []string
	// DupCols are the live dup-index columns to dedup on before shipping.
	DupCols []string
	// OneCopy reads a single copy of a replicated input instead of all n.
	OneCopy bool
}

func (n *RepartitionNode) Children() []Node { return []Node{n.Child} }
func (n *RepartitionNode) String() string {
	return fmt.Sprintf("Repartition(hash %v, dedup %v)", n.Cols, n.DupCols)
}

// BroadcastNode replicates its input to every partition (used for the
// build side of remote theta/cross joins), deduping PREF copies first.
type BroadcastNode struct {
	Child   Node
	DupCols []string
	// OneCopy reads a single copy of a replicated input instead of all n.
	OneCopy bool
}

func (n *BroadcastNode) Children() []Node { return []Node{n.Child} }
func (n *BroadcastNode) String() string   { return fmt.Sprintf("Broadcast(dedup %v)", n.DupCols) }

// DistinctPrefNode eliminates PREF-induced duplicates locally using the
// dup bitmap index: a row is kept iff any of its live dup columns is 0
// (the disjunctive filter of Section 2.2). It is a purely local operator —
// no data movement — which is what makes the optimization of Figure 9 fast.
type DistinctPrefNode struct {
	Child   Node
	DupCols []string
}

func (n *DistinctPrefNode) Children() []Node { return []Node{n.Child} }
func (n *DistinctPrefNode) String() string   { return fmt.Sprintf("DistinctPref(%v)", n.DupCols) }

// DistinctByValueNode is the pessimistic fallback used when the dup-index
// optimization is disabled (the "wo optimizations" bars of Figure 9): a
// full value-based distinct that must repartition rows by their content.
type DistinctByValueNode struct {
	Child Node
	// Cols are the columns defining row identity (hidden index columns
	// excluded).
	Cols []string
}

func (n *DistinctByValueNode) Children() []Node { return []Node{n.Child} }
func (n *DistinctByValueNode) String() string   { return fmt.Sprintf("DistinctByValue(%v)", n.Cols) }

// RuntimeFilterNode drops the rows whose Col value is in none of the exact
// key sets From builds of its source input's keys, one per partition and
// shipped to every node. It sits in From's other input, where Col carries
// that input's join key up to From unchanged, so a dropped row could not
// have joined. Like FilterNode it hands on views of its input.
//
// A Local filter ships nothing: partition p probes only the key set of
// partition p's source rows. That holds every key a row of partition p can
// meet at From when no exchange lies between the filter and From, or when
// every partition of the source holds all of its rows.
type RuntimeFilterNode struct {
	Child Node
	Col   string
	From  *JoinNode
	Local bool
}

func (n *RuntimeFilterNode) Children() []Node { return []Node{n.Child} }
func (n *RuntimeFilterNode) String() string {
	if n.From == nil || n.From.Source == NoSide || len(n.From.LeftCols) != 1 {
		return "RuntimeFilter(" + n.Col + ")" // malformed: check.Verify says why
	}
	_, key := n.From.SourceInput()
	if n.Local {
		return fmt.Sprintf("RuntimeFilter(%s IN keys(%s); local)", n.Col, key)
	}
	return fmt.Sprintf("RuntimeFilter(%s IN keys(%s))", n.Col, key)
}

// GatherNode collects all partitions' rows at the coordinator (partition
// 0). OneCopy is set when the input is replicated, so a single copy is
// read instead of n identical ones.
type GatherNode struct {
	Child   Node
	OneCopy bool
}

func (n *GatherNode) Children() []Node { return []Node{n.Child} }
func (n *GatherNode) String() string   { return "Gather" }

// PartialAggNode computes per-partition partial aggregate states over
// duplicate-free input: one row per group and partition, laid out as
// partialSchema (group columns, then each aggregate's state; AVG carries
// sum and count). Its partner FinalAggNode merges them after an exchange:
// a Gather for global (group-less) aggregation, a Repartition on the
// group-by columns for grouped aggregation.
type PartialAggNode struct {
	Child   Node
	GroupBy []string
	Aggs    []AggExpr
}

func (n *PartialAggNode) Children() []Node { return []Node{n.Child} }
func (n *PartialAggNode) String() string {
	return fmt.Sprintf("PartialAgg(by %v, %d aggs)", n.GroupBy, len(n.Aggs))
}

// FinalAggNode merges the partial states produced by PartialAggNode. Over
// gathered partials (empty GroupBy) it runs once, on the coordinator; over
// partials repartitioned on the group-by columns it runs on every
// partition, each merging the groups hashed to it, and its output is
// hash-placed on GroupBy. States merge in input order, which exchanges keep
// ascending by source partition.
type FinalAggNode struct {
	Child   Node
	GroupBy []string
	Aggs    []AggExpr
}

func (n *FinalAggNode) Children() []Node { return []Node{n.Child} }
func (n *FinalAggNode) String() string {
	return fmt.Sprintf("FinalAgg(by %v, %d aggs)", n.GroupBy, len(n.Aggs))
}

// kindOfAgg reports the output kind of an aggregate expression.
func kindOfAgg(a AggExpr, in Schema) value.Kind {
	switch a.Fn {
	case CountFn, CountDistinctFn:
		return value.Int
	case AvgFn:
		return value.Float
	default:
		if a.Arg != nil {
			return a.Arg.Kind(in)
		}
		return value.Int
	}
}

// Format renders a plan tree with indentation, for tests and EXPLAIN-style
// debugging output.
func Format(n Node) string {
	var sb strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.String())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}
