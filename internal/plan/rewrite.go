package plan

import (
	"fmt"
	"strings"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/value"
)

// Options toggles the query optimizations of Section 2.2, so the
// effectiveness experiment of Figure 9 can run both ways.
type Options struct {
	// DisableHasRefOpt turns off rewriting semi/anti joins against the
	// referenced table into hasRef-index filters.
	DisableHasRefOpt bool
	// DisableDupIndex turns off the dup-bitmap-based local duplicate
	// elimination; PREF duplicates are then removed by a full value-based
	// distinct with repartitioning.
	DisableDupIndex bool
	// Stats are the statistics of the partitioned database the plan will
	// run on (GatherStats). With them the rewrite prices its data-dependent
	// choices (estimate.go): a misaligned equi-join may broadcast an input
	// instead of re-partitioning, and an aggregate is summed below its key
	// join when that is estimated to take less simulated time. Nil makes no
	// estimate: joins re-partition, and the eager form must need fewer
	// exchanges.
	Stats *Stats
	// DisablePruning turns off partition pruning for point filters on
	// partitioning columns (ablation).
	DisablePruning bool
}

// Rewritten is the output of the rewrite: a physical plan annotated with
// the schema of every operator and the root's properties. Catalog and Cfg
// record the inputs the plan was rewritten against, so a static verifier
// (internal/check) can re-derive every property without extra plumbing.
type Rewritten struct {
	Root    Node
	Schemas map[Node]Schema
	Props   map[Node]*Prop
	Catalog *catalog.Schema
	Cfg     *partition.Config
}

// Schema returns the annotated schema of a node.
func (r *Rewritten) Schema(n Node) Schema { return r.Schemas[n] }

// RootProp returns the properties of the root operator.
func (r *Rewritten) RootProp() *Prop { return r.Props[r.Root] }

// Explain renders the physical plan with each operator's partitioning
// properties — an EXPLAIN for the Section 2.2 rewrite.
func (r *Rewritten) Explain() string {
	var sb strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.String())
		if p := r.Props[n]; p != nil {
			sb.WriteString("   ")
			sb.WriteString(p.String())
		}
		switch n.(type) {
		case *RepartitionNode, *BroadcastNode, *GatherNode:
			// What the exchange carries: its recorded, pruned schema.
			fmt.Fprintf(&sb, "   ships=%v", r.Schemas[n].Names())
		}
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(r.Root, 0)
	return sb.String()
}

// Rewriter performs the bottom-up rewrite of Section 2.2 against one
// partitioned database configuration.
type Rewriter struct {
	Schema *catalog.Schema
	Cfg    *partition.Config
	Opt    Options

	out     *Rewritten
	aliases map[string]bool

	// With Opt.Stats: memo caches row estimates per physical node, origin
	// maps a physical node to the logical node it was rewritten from, and
	// refs counts the column reads of the logical plan (estimate.go).
	memo   map[Node]float64
	origin map[Node]Node
	refs   colSet

	// inPlace maps the sums of an eager form whose input is PREF-placed on
	// its partner to that input's alias: they aggregate where they are
	// (eager.go).
	inPlace map[*AggregateNode]string
}

// Rewrite turns a logical SPJA plan into an executable physical plan:
// it decides per operator whether the inputs need re-partitioning or
// PREF-duplicate elimination, and applies the hasRef semi/anti-join
// optimizations.
func Rewrite(root Node, schema *catalog.Schema, cfg *partition.Config, opt Options) (*Rewritten, error) {
	r := newRewriter(root, schema, cfg, opt)
	phys, prop, sch, err := r.rewrite(root)
	if err != nil {
		return nil, err
	}
	if phys, _, _, err = r.finalizeRoot(phys, prop, sch); err != nil {
		return nil, err
	}
	r.out.Root = phys
	r.placeTransfers(phys)
	r.pruneColumns(phys)
	return r.out, nil
}

// newRewriter returns a rewriter for the logical plan root.
func newRewriter(root Node, schema *catalog.Schema, cfg *partition.Config, opt Options) *Rewriter {
	r := &Rewriter{
		Schema: schema,
		Cfg:    cfg,
		Opt:    opt,
		out: &Rewritten{
			Schemas: map[Node]Schema{}, Props: map[Node]*Prop{},
			Catalog: schema, Cfg: cfg,
		},
		aliases: map[string]bool{},
	}
	if opt.Stats != nil {
		r.memo, r.origin = map[Node]float64{}, map[Node]Node{}
		r.refs = refsOf(root)
		r.refs.add(r.outCols(root))
	}
	return r
}

// finalizeRoot makes a plan's output presentable: PREF duplicates are
// eliminated (the paper assumes a top-level projection does this) and the
// hidden index columns are dropped. TopK roots re-apply their final pass
// above the cleanup so ordering survives.
func (r *Rewriter) finalizeRoot(root Node, prop *Prop, sch Schema) (Node, *Prop, Schema, error) {
	if topk, ok := root.(*TopKNode); ok && topk.Final {
		child, cprop, csch, err := r.finalizeRoot(topk.Child, r.out.Props[topk.Child], r.out.Schemas[topk.Child])
		if err != nil {
			return nil, nil, nil, err
		}
		if child == topk.Child {
			return root, prop, sch, nil
		}
		nt := &TopKNode{Child: child, Order: topk.Order, Limit: topk.Limit, Final: true}
		_ = cprop
		n, p, s := r.note(nt, csch, prop)
		return n, p, s, nil
	}

	root, prop, sch = r.dedup(root, prop, sch)
	hidden := false
	for _, f := range sch {
		if IsHiddenCol(f.Name) {
			hidden = true
			break
		}
	}
	if !hidden {
		return root, prop, sch, nil
	}
	var names []string
	var exprs []ValExpr
	out := make(Schema, 0, len(sch))
	for _, f := range sch {
		if IsHiddenCol(f.Name) {
			continue
		}
		names = append(names, f.Name)
		exprs = append(exprs, Col(f.Name))
		out = append(out, f)
	}
	n, pr, s := r.note(&ProjectNode{Child: root, Exprs: exprs, Names: names}, out, prop)
	return n, pr, s, nil
}

// note records the annotation of a produced physical node and returns it.
// Every recorded Prop is recorded here (cheaperForm merges a fork's records
// whole), and note records a copy of p, so no two operators ever hold the
// same Prop: p may be another operator's.
func (r *Rewriter) note(n Node, sch Schema, p *Prop) (Node, *Prop, Schema) {
	p = p.Clone()
	r.out.Schemas[n] = sch
	r.out.Props[n] = p
	return n, p, sch
}

func (r *Rewriter) rewrite(n Node) (Node, *Prop, Schema, error) {
	phys, prop, sch, err := r.rewriteNode(n)
	if err == nil && r.origin != nil {
		r.origin[phys] = n
	}
	return phys, prop, sch, err
}

func (r *Rewriter) rewriteNode(n Node) (Node, *Prop, Schema, error) {
	switch n := n.(type) {
	case *ScanNode:
		return r.rewriteScan(n)
	case *FilterNode:
		return r.rewriteFilter(n)
	case *ProjectNode:
		return r.rewriteProject(n)
	case *JoinNode:
		return r.rewriteJoin(n)
	case *AggregateNode:
		return r.rewriteAggregate(n)
	case *TopKNode:
		return r.rewriteTopK(n)
	default:
		return nil, nil, nil, fmt.Errorf("plan: cannot rewrite node %T (already physical?)", n)
	}
}

func (r *Rewriter) rewriteScan(n *ScanNode) (Node, *Prop, Schema, error) {
	t := r.Schema.Table(n.Table)
	if t == nil {
		return nil, nil, nil, fmt.Errorf("plan: unknown table %s", n.Table)
	}
	if r.aliases[n.Alias] {
		return nil, nil, nil, fmt.Errorf("plan: duplicate alias %s", n.Alias)
	}
	r.aliases[n.Alias] = true
	ts := r.Cfg.Scheme(n.Table)
	if ts == nil {
		return nil, nil, nil, fmt.Errorf("plan: table %s has no partitioning scheme", n.Table)
	}

	sch := make(Schema, 0, t.NumCols()+2)
	for _, c := range t.Columns {
		sch = append(sch, Field{Name: Qualify(n.Alias, c.Name), Kind: c.Kind})
	}
	prop := &Prop{Parts: r.Cfg.NumPartitions, Placed: map[string]PlacedEntry{}}
	switch ts.Method {
	case partition.Replicated:
		prop.Repl = true
	case partition.Hash:
		prop.SetHashCols(qualifyAll(n.Alias, ts.Cols))
		prop.Placed[n.Alias] = PlacedEntry{Table: n.Table, Scheme: ts}
	case partition.Pref:
		sch = append(sch,
			Field{Name: DupCol(n.Alias), Kind: value.Int},
			Field{Name: HasRefCol(n.Alias), Kind: value.Int},
		)
		prop.Placed[n.Alias] = PlacedEntry{Table: n.Table, Scheme: ts}
		if mapped, ok := r.Cfg.HashEquivalent(n.Table); ok {
			// The whole PREF chain bottoms out at a hash seed on the
			// predicate columns: placement is provably identical to hash
			// partitioning on the mapped columns, duplicate-free. This
			// unlocks case (1) joins, local aggregation, and safe
			// semi/anti/outer execution on this table.
			prop.SetHashCols(qualifyAll(n.Alias, mapped))
		} else if !r.Cfg.DupFree(r.Schema, n.Table) {
			// Redundancy-free chains (unique-key references all the way
			// to a duplicate-free seed, Section 3.4) provably store each
			// tuple once; only genuinely duplicated tables carry live
			// dup columns.
			prop.SetDupCols([]string{DupCol(n.Alias)})
		}
	default: // RoundRobin, Range: placement known but not join-exploitable
		prop.Placed[n.Alias] = PlacedEntry{Table: n.Table, Scheme: ts}
	}
	// The physical scan is a copy: pruning writes into it, and the logical
	// plan stays reusable under another design.
	scan := *n
	node, p, s := r.note(&scan, sch, prop)
	return node, p, s, nil
}

func (r *Rewriter) rewriteFilter(n *FilterNode) (Node, *Prop, Schema, error) {
	if agg, ok := n.Child.(*AggregateNode); ok {
		if eager := r.eagerForm(agg, n.Pred); eager != nil {
			return r.cheaperForm(n, eager, func(f *Rewriter) (Node, *Prop, Schema, error) {
				child, prop, sch, err := f.lazyAggregate(agg)
				if err != nil {
					return nil, nil, nil, err
				}
				return f.filter(n.Pred, child, prop, sch)
			})
		}
	}
	child, prop, sch, err := r.rewrite(n.Child)
	if err != nil {
		return nil, nil, nil, err
	}
	return r.filter(n.Pred, child, prop, sch)
}

// filter places the selection pred over a rewritten input.
func (r *Rewriter) filter(pred BoolExpr, child Node, prop *Prop, sch Schema) (Node, *Prop, Schema, error) {
	if _, err := pred.Bind(sch); err != nil {
		return nil, nil, nil, err
	}
	if !r.Opt.DisablePruning {
		r.tryPrune(child, prop, pred)
	}
	node, p, s := r.note(&FilterNode{Child: child, Pred: pred}, sch, prop)
	return node, p, s, nil
}

// tryPrune restricts a scanned table to the single partition that can
// contain matching rows when the filter pins all partitioning columns to
// constants. Sound for hash tables, hash-equivalent PREF chains (their
// placement — including orphans — is exactly the hash function), and
// range tables. This is the "partition pruning for PREF" the paper's
// conclusion names as future work.
func (r *Rewriter) tryPrune(child Node, prop *Prop, pred BoolExpr) {
	scan := pruneTarget(child)
	if scan == nil || scan.Prune != nil || prop.Repl {
		return
	}
	bindings := EqualityBindings(pred)
	if len(bindings) == 0 {
		return
	}

	// Hash / hash-equivalent placement: all hash columns must be bound.
	if hash := prop.HashCols(); hash != nil {
		vals := make(value.Tuple, len(hash))
		cols := make([]int, len(hash))
		for i, c := range hash {
			v, ok := bindings[c]
			if !ok {
				return
			}
			vals[i] = v
			cols[i] = i
		}
		scan.Prune = []int{partition.HashTarget(vals, cols, prop.Parts)}
		return
	}

	// Range placement: the bound column pins the partition via the bounds.
	ts := r.Cfg.Scheme(scan.Table)
	if ts != nil && ts.Method == partition.Range {
		if v, ok := bindings[Qualify(scan.Alias, ts.Cols[0])]; ok {
			scan.Prune = []int{partition.RangeTarget(v, ts.Bounds)}
		}
	}
}

// pruneTarget unwraps physical filter chains down to a prunable scan.
func pruneTarget(n Node) *ScanNode {
	for {
		switch x := n.(type) {
		case *ScanNode:
			return x
		case *FilterNode:
			n = x.Child
		default:
			return nil
		}
	}
}

// dedup wraps child with a PREF-duplicate elimination when it has live dup
// columns: the dup-index filter normally, or the pessimistic value-based
// distinct when the optimization is disabled.
func (r *Rewriter) dedup(child Node, prop *Prop, sch Schema) (Node, *Prop, Schema) {
	if !prop.Dup() {
		return child, prop, sch
	}
	np := prop.Clone()
	np.SetDupCols(nil)
	if !r.Opt.DisableDupIndex {
		return r.note(&DistinctPrefNode{Child: child, DupCols: prop.DupCols()}, sch, np)
	}
	// Fallback: distinct by row value (excluding hidden index columns),
	// which requires a repartition by content.
	var cols []string
	for _, c := range sch {
		if !IsHiddenCol(c.Name) {
			cols = append(cols, c.Name)
		}
	}
	np.SetHashCols(nil)
	np.Placed = map[string]PlacedEntry{}
	return r.note(&DistinctByValueNode{Child: child, Cols: cols}, sch, np)
}

func IsHiddenCol(name string) bool {
	return strings.HasSuffix(name, ".__dup") || strings.HasSuffix(name, ".__hasref")
}

func (r *Rewriter) rewriteProject(n *ProjectNode) (Node, *Prop, Schema, error) {
	child, prop, sch, err := r.rewrite(n.Child)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(n.Exprs) != len(n.Names) {
		return nil, nil, nil, fmt.Errorf("plan: projection arity mismatch")
	}
	// Section 2.2: projection never re-partitions, but eliminates PREF
	// duplicates first when Dup(oin)=1.
	child, prop, sch = r.dedup(child, prop, sch)

	out := make(Schema, len(n.Exprs))
	for i, e := range n.Exprs {
		if _, err := e.Bind(sch); err != nil {
			return nil, nil, nil, err
		}
		out[i] = Field{Name: n.Names[i], Kind: e.Kind(sch)}
	}
	p := &ProjectNode{Child: child, Exprs: n.Exprs, Names: n.Names}
	// Placement survives projection (rows don't move); hash/placed
	// properties referencing dropped columns simply become unusable by
	// later matching, which is sound.
	node, pr, s := r.note(p, out, prop)
	return node, pr, s, nil
}

func (r *Rewriter) rewriteAggregate(n *AggregateNode) (Node, *Prop, Schema, error) {
	if eager := r.eagerForm(n, nil); eager != nil {
		return r.cheaperForm(n, eager, func(f *Rewriter) (Node, *Prop, Schema, error) {
			return f.lazyAggregate(n)
		})
	}
	return r.lazyAggregate(n)
}

// lazyAggregate places the aggregate above its input, as §2.2 does.
func (r *Rewriter) lazyAggregate(n *AggregateNode) (Node, *Prop, Schema, error) {
	child, prop, sch, err := r.rewrite(n.Child)
	if err != nil {
		return nil, nil, nil, err
	}

	if len(n.GroupBy) == 0 {
		return r.rewriteGlobalAgg(n, child, prop, sch)
	}

	outSchema := func(in Schema) Schema {
		out := make(Schema, 0, len(n.GroupBy)+len(n.Aggs))
		for _, g := range n.GroupBy {
			out = append(out, Field{Name: g, Kind: in[in.MustIndex(g)].Kind})
		}
		for _, a := range n.Aggs {
			out = append(out, Field{Name: a.As, Kind: kindOfAgg(a, in)})
		}
		return out
	}
	if err := r.checkAggBinds(n, sch); err != nil {
		return nil, nil, nil, err
	}

	// Local aggregation is possible when the input is replicated (each
	// node aggregates its own full copy) or hash-partitioned with the
	// partitioning columns covered by the group-by list (equal group keys
	// then imply one partition; the paper states the prefix special case,
	// set containment modulo equivalences is the general sound rule).
	local := prop.Repl ||
		(prop.HashCols() != nil && hashCoveredBy(prop, n.GroupBy) && !prop.Dup())
	// The sums of an eager form over a duplicate-free PREF input aggregate in
	// place too; only their orphan groups may be split (eager.go).
	orphans := ""
	if _, ok := prop.Placed[r.inPlace[n]]; ok && !local && !prop.Dup() {
		orphans, local = r.inPlace[n], true
	}
	if local {
		agg := &AggregateNode{Child: child, GroupBy: n.GroupBy, Aggs: n.Aggs}
		np := &Prop{Parts: prop.Parts, Repl: prop.Repl, Placed: map[string]PlacedEntry{}}
		// The hash property survives only if its column names survive the
		// aggregation's output schema.
		if allIn(prop.HashCols(), n.GroupBy) {
			np.SetHashCols(prop.HashCols())
		}
		if orphans != "" {
			np.Placed[orphans], np.Orphans = prop.Placed[orphans], orphans
		}
		node, p, s := r.note(agg, outSchema(sch), np)
		return node, p, s, nil
	}

	// Either way the output ends up hash-placed on the group-by columns.
	np := &Prop{Parts: prop.Parts, Placed: map[string]PlacedEntry{}}
	np.SetHashCols(n.GroupBy)

	// COUNT(DISTINCT) states do not merge: re-partition every input row by
	// the group-by columns (removing PREF duplicates in transit) and
	// aggregate after.
	if hasCountDistinct(n.Aggs) {
		rep, _, _ := r.repartition(child, prop, sch, n.GroupBy)
		agg := &AggregateNode{Child: rep, GroupBy: n.GroupBy, Aggs: n.Aggs}
		node, p, s := r.note(agg, outSchema(sch), np)
		return node, p, s, nil
	}

	// Otherwise aggregate in two phases: eliminate PREF duplicates locally,
	// pre-aggregate per partition, re-partition the partial states (one row
	// per group and partition, not one per input row) by the group-by
	// columns, and merge them where they land.
	child, prop, sch = r.dedup(child, prop, sch)
	partial := &PartialAggNode{Child: child, GroupBy: n.GroupBy, Aggs: n.Aggs}
	psch := partialSchema(n.GroupBy, n.Aggs, sch)
	_, pprop, _ := r.note(partial, psch, &Prop{Parts: prop.Parts})
	rep, _, _ := r.repartition(partial, pprop, psch, n.GroupBy)
	fin := &FinalAggNode{Child: rep, GroupBy: n.GroupBy, Aggs: n.Aggs}
	node, p, s := r.note(fin, outSchema(sch), np)
	return node, p, s, nil
}

func hasCountDistinct(aggs []AggExpr) bool {
	for _, a := range aggs {
		if a.Fn == CountDistinctFn {
			return true
		}
	}
	return false
}

// dupColsFor returns the dup columns a shipping operator must dedup on;
// when the dup-index optimization is disabled the rewriter inserts an
// explicit value distinct first, so the shipper gets none.
func dupColsFor(r *Rewriter, prop *Prop) []string {
	if r.Opt.DisableDupIndex {
		return nil
	}
	return prop.DupCols()
}

// preShipDedup inserts the pessimistic value-based distinct before a
// shipping operator when the dup index may not be used.
func (r *Rewriter) preShipDedup(child Node, prop *Prop, sch Schema) (Node, *Prop, Schema) {
	if !r.Opt.DisableDupIndex || !prop.Dup() {
		return child, prop, sch
	}
	return r.dedup(child, prop, sch)
}

func (r *Rewriter) rewriteGlobalAgg(n *AggregateNode, child Node, prop *Prop, sch Schema) (Node, *Prop, Schema, error) {
	if err := r.checkAggBinds(n, sch); err != nil {
		return nil, nil, nil, err
	}

	// COUNT(DISTINCT) states cannot be merged from partials; gather the
	// (deduplicated) rows and aggregate at the coordinator instead.
	if hasCountDistinct(n.Aggs) {
		return r.rewriteGatheredAgg(n, child, prop, sch)
	}

	// Eliminate PREF duplicates locally, pre-aggregate per partition,
	// gather the partials, and merge at the coordinator.
	child, prop, sch = r.dedup(child, prop, sch)

	partial := &PartialAggNode{Child: child, GroupBy: nil, Aggs: n.Aggs}
	psch := partialSchema(nil, n.Aggs, sch)
	r.note(partial, psch, &Prop{Parts: prop.Parts})

	g := &GatherNode{Child: partial, OneCopy: prop.Repl}
	r.note(g, psch, &Prop{Parts: prop.Parts, Gathered: true})

	fin := &FinalAggNode{Child: g, GroupBy: nil, Aggs: n.Aggs}
	out := make(Schema, 0, len(n.Aggs))
	for _, a := range n.Aggs {
		out = append(out, Field{Name: a.As, Kind: kindOfAgg(a, sch)})
	}
	node, p, s := r.note(fin, out, &Prop{Parts: prop.Parts, Gathered: true})
	return node, p, s, nil
}

// rewriteTopK turns ORDER BY … LIMIT into a per-partition partial top-k,
// a gather of the survivors, and a final ordered pass at the coordinator.
// With a limit, each partition ships at most Limit rows; without one,
// TopK is a plain gathered ORDER BY.
func (r *Rewriter) rewriteTopK(n *TopKNode) (Node, *Prop, Schema, error) {
	child, prop, sch, err := r.rewrite(n.Child)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, o := range n.Order {
		if sch.Index(o.Col) < 0 {
			return nil, nil, nil, fmt.Errorf("plan: unknown order column %q", o.Col)
		}
	}
	child, prop, sch = r.dedup(child, prop, sch)

	partial := &TopKNode{Child: child, Order: n.Order, Limit: n.Limit}
	r.note(partial, sch, &Prop{Parts: prop.Parts})

	g := &GatherNode{Child: partial, OneCopy: prop.Repl}
	r.note(g, sch, &Prop{Parts: prop.Parts, Gathered: true})

	final := &TopKNode{Child: g, Order: n.Order, Limit: n.Limit, Final: true}
	node, p, s := r.note(final, sch, &Prop{Parts: prop.Parts, Gathered: true})
	return node, p, s, nil
}

// rewriteGatheredAgg ships the full (deduplicated) input to the
// coordinator and aggregates there — the fallback for global aggregates
// whose states do not merge (COUNT DISTINCT).
func (r *Rewriter) rewriteGatheredAgg(n *AggregateNode, child Node, prop *Prop, sch Schema) (Node, *Prop, Schema, error) {
	child, prop, sch = r.dedup(child, prop, sch)
	g := &GatherNode{Child: child, OneCopy: prop.Repl}
	r.note(g, sch, &Prop{Parts: prop.Parts, Gathered: true})
	agg := &AggregateNode{Child: g, GroupBy: nil, Aggs: n.Aggs}
	out := make(Schema, 0, len(n.Aggs))
	for _, a := range n.Aggs {
		out = append(out, Field{Name: a.As, Kind: kindOfAgg(a, sch)})
	}
	node, p, s := r.note(agg, out, &Prop{Parts: prop.Parts, Gathered: true})
	return node, p, s, nil
}

func (r *Rewriter) checkAggBinds(n *AggregateNode, sch Schema) error {
	for _, g := range n.GroupBy {
		if sch.Index(g) < 0 {
			return fmt.Errorf("plan: unknown group-by column %q", g)
		}
	}
	for _, a := range n.Aggs {
		if a.Arg != nil {
			if _, err := a.Arg.Bind(sch); err != nil {
				return err
			}
		}
	}
	return nil
}

// partialSchema is the intermediate schema of PartialAggNode: group
// columns followed by per-aggregate state columns (AVG keeps sum+count, the
// sum in its argument's kind so Int/Money states merge exactly).
func partialSchema(groupBy []string, aggs []AggExpr, in Schema) Schema {
	out := make(Schema, 0, len(groupBy)+len(aggs)+1)
	for _, g := range groupBy {
		out = append(out, Field{Name: g, Kind: in[in.MustIndex(g)].Kind})
	}
	for _, a := range aggs {
		if a.Fn == AvgFn {
			out = append(out,
				Field{Name: a.As + "$sum", Kind: kindOfAgg(AggExpr{Fn: SumFn, Arg: a.Arg}, in)},
				Field{Name: a.As + "$cnt", Kind: value.Int})
		} else {
			out = append(out, Field{Name: a.As, Kind: kindOfAgg(a, in)})
		}
	}
	return out
}

// allIn reports whether every element of a appears literally in b.
func allIn(a, b []string) bool {
	if len(a) == 0 {
		return false
	}
	for _, x := range a {
		ok := false
		for _, y := range b {
			if x == y {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// hashCoveredBy reports whether every hash column is among the group-by
// columns, directly or via an equivalence.
func hashCoveredBy(p *Prop, groupBy []string) bool {
	if len(p.HashCols()) == 0 {
		return false
	}
	for _, h := range p.HashCols() {
		ok := false
		for _, g := range groupBy {
			if p.EquivSame(h, g) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
