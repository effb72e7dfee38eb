package check

import (
	"fmt"
	"slices"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/value"
)

// info is the checker's independently derived annotation of one operator.
type info struct {
	prop *plan.Prop
	// sch is the schema the operator produces: derived from its children's
	// sch, then — for an operator that copies rows — cut to the columns the
	// rewrite recorded as live (narrowed). full is what it would produce with
	// nothing pruned anywhere below; the two differ only by dropped columns.
	sch, full plan.Schema
	// contentRepl records that the operator's *content* is identical on
	// every partition even when prop.Repl is false — true after a partial
	// aggregation or partial top-k over replicated input. Gather's OneCopy
	// flag is validated against this, not against prop.Repl.
	contentRepl bool
}

// checker re-derives the Dup/Part property algebra of Section 2.2 over a
// physical plan, bottom-up, with an implementation independent of the
// rewriter's, and diffs the result against the recorded annotations. The
// transfer rules mirror internal/plan's rewrite deliberately: if the two
// implementations ever drift, legitimate plans start failing verification,
// which is exactly the signal we want.
type checker struct {
	rw  *plan.Rewritten
	cat *catalog.Schema
	cfg *partition.Config

	vs      Violations
	memo    map[plan.Node]*info
	visited map[plan.Node]int // 0 new, 1 in progress, 2 done (cycle guard)
	aliases map[string]bool
}

func newChecker(rw *plan.Rewritten) *checker {
	return &checker{
		rw:      rw,
		cat:     rw.Catalog,
		cfg:     rw.Cfg,
		memo:    map[plan.Node]*info{},
		visited: map[plan.Node]int{},
		aliases: map[string]bool{},
	}
}

func (c *checker) report(rule Rule, n plan.Node, format string, args ...any) {
	c.vs = append(c.vs, &Violation{Rule: rule, Node: n, Detail: fmt.Sprintf(format, args...)})
}

// degenerate is the annotation used to keep walking after a node is too
// broken to derive properties for; it avoids cascading noise.
func degenerate(parts int) *info {
	return &info{prop: &plan.Prop{Parts: parts, Placed: map[string]plan.PlacedEntry{}}, sch: plan.Schema{}}
}

func (c *checker) visit(n plan.Node) *info {
	if n == nil {
		c.report(RuleMalformed, nil, "nil operator in plan tree")
		return degenerate(c.cfg.NumPartitions)
	}
	if in, ok := c.memo[n]; ok {
		if c.visited[n] == 1 {
			c.report(RuleMalformed, n, "plan graph contains a cycle through this operator")
		}
		return in
	}
	if c.visited[n] == 1 {
		c.report(RuleMalformed, n, "plan graph contains a cycle through this operator")
		return degenerate(c.cfg.NumPartitions)
	}
	c.visited[n] = 1
	in := c.derive(n)
	c.checkOrphans(n)
	in.full = c.unpruned(n, in.sch)
	in.sch = c.narrowed(n, in.sch)
	c.visited[n] = 2
	c.memo[n] = in
	c.diff(n, in)
	return in
}

// derive computes the node's annotation from its children's, reporting
// violations of the structural, locality, and duplicate-freedom rules.
func (c *checker) derive(n plan.Node) *info {
	switch n := n.(type) {
	case *plan.ScanNode:
		return c.deriveScan(n)
	case *plan.FilterNode:
		return c.deriveFilter(n)
	case *plan.RuntimeFilterNode:
		return c.deriveRuntimeFilter(n)
	case *plan.ProjectNode:
		return c.deriveProject(n)
	case *plan.JoinNode:
		return c.deriveJoin(n)
	case *plan.AggregateNode:
		return c.deriveAggregate(n)
	case *plan.PartialAggNode:
		return c.derivePartialAgg(n)
	case *plan.FinalAggNode:
		return c.deriveFinalAgg(n)
	case *plan.TopKNode:
		return c.deriveTopK(n)
	case *plan.RepartitionNode:
		return c.deriveRepartition(n)
	case *plan.BroadcastNode:
		return c.deriveBroadcast(n)
	case *plan.GatherNode:
		return c.deriveGather(n)
	case *plan.DistinctPrefNode:
		return c.deriveDistinctPref(n)
	case *plan.DistinctByValueNode:
		return c.deriveDistinctByValue(n)
	default:
		c.report(RuleMalformed, n, "unknown operator type %T", n)
		return degenerate(c.cfg.NumPartitions)
	}
}

// unpruned is the schema n would produce if no operator below it had dropped
// a column: the natural schema over the children's unpruned schemas. Only
// operators that pass their input's columns on differ from natural; a
// projection or an aggregation names its own.
func (c *checker) unpruned(n plan.Node, natural plan.Schema) plan.Schema {
	full := func(child plan.Node) plan.Schema {
		if in := c.memo[child]; in != nil {
			return in.full
		}
		return nil // nil or cyclic child: already reported
	}
	switch n := n.(type) {
	case *plan.JoinNode:
		if n.Type == plan.Semi || n.Type == plan.Anti {
			return full(n.Left)
		}
		return full(n.Left).Concat(full(n.Right))
	case *plan.FilterNode, *plan.RuntimeFilterNode, *plan.DistinctPrefNode, *plan.DistinctByValueNode,
		*plan.TopKNode, *plan.RepartitionNode, *plan.BroadcastNode, *plan.GatherNode:
		return full(n.Children()[0])
	default:
		return natural
	}
}

// narrowed applies column pruning to an operator that copies rows: its
// recorded schema stands when it is an order-preserving subset of the natural
// one — the columns the rewrite found live — and operators above bind against
// it. Anything else (an unknown, retyped or reordered column) leaves the
// natural schema in place for diff to report against.
func (c *checker) narrowed(n plan.Node, natural plan.Schema) plan.Schema {
	switch n.(type) {
	case *plan.JoinNode, *plan.RepartitionNode, *plan.BroadcastNode, *plan.GatherNode:
	default:
		return natural
	}
	rec := c.rw.Schemas[n]
	i := 0
	for _, f := range natural {
		if i < len(rec) && rec[i] == f {
			i++
		}
	}
	if i != len(rec) || (len(rec) == 0 && len(natural) > 0) {
		return natural
	}
	return rec
}

func (c *checker) deriveScan(n *plan.ScanNode) *info {
	t := c.cat.Table(n.Table)
	if t == nil {
		c.report(RuleMalformed, n, "scan of unknown table %s", n.Table)
		return degenerate(c.cfg.NumPartitions)
	}
	if c.aliases[n.Alias] {
		c.report(RuleMalformed, n, "duplicate alias %s: two scans would collide in the qualified namespace", n.Alias)
	}
	c.aliases[n.Alias] = true
	ts := c.cfg.Scheme(n.Table)
	if ts == nil {
		c.report(RuleMalformed, n, "table %s has no partitioning scheme", n.Table)
		return degenerate(c.cfg.NumPartitions)
	}

	sch := make(plan.Schema, 0, t.NumCols()+2)
	for _, col := range t.Columns {
		sch = append(sch, plan.Field{Name: plan.Qualify(n.Alias, col.Name), Kind: col.Kind})
	}
	prop := &plan.Prop{Parts: c.cfg.NumPartitions, Placed: map[string]plan.PlacedEntry{}}
	switch ts.Method {
	case partition.Replicated:
		prop.Repl = true
	case partition.Hash:
		prop.SetHashCols(qualify(n.Alias, ts.Cols))
		prop.Placed[n.Alias] = plan.PlacedEntry{Table: n.Table, Scheme: ts}
	case partition.Pref:
		sch = append(sch,
			plan.Field{Name: plan.DupCol(n.Alias), Kind: value.Int},
			plan.Field{Name: plan.HasRefCol(n.Alias), Kind: value.Int},
		)
		prop.Placed[n.Alias] = plan.PlacedEntry{Table: n.Table, Scheme: ts}
		if mapped, ok := c.cfg.HashEquivalent(n.Table); ok {
			prop.SetHashCols(qualify(n.Alias, mapped))
		} else if !c.cfg.DupFree(c.cat, n.Table) {
			prop.SetDupCols([]string{plan.DupCol(n.Alias)})
		}
	default:
		prop.Placed[n.Alias] = plan.PlacedEntry{Table: n.Table, Scheme: ts}
	}

	if n.Prune != nil {
		if prop.Repl {
			c.report(RuleMalformed, n, "partition pruning on a replicated table")
		}
		for _, p := range n.Prune {
			if p < 0 || p >= c.cfg.NumPartitions {
				c.report(RuleMalformed, n, "pruned partition %d out of range [0,%d)", p, c.cfg.NumPartitions)
			}
		}
	}
	return &info{prop: prop, sch: sch, contentRepl: prop.Repl}
}

func (c *checker) deriveFilter(n *plan.FilterNode) *info {
	ci := c.visit(n.Child)
	if n.Pred == nil {
		c.report(RuleMalformed, n, "filter with nil predicate")
	} else if _, err := n.Pred.Bind(ci.sch); err != nil {
		c.report(RuleMalformed, n, "predicate does not bind: %v", err)
	}
	return &info{prop: ci.prop.Clone(), sch: ci.sch, contentRepl: ci.contentRepl}
}

// deriveRuntimeFilter: rows stay where they are, so properties pass through;
// where the filter may sit is checkTransfers' question.
func (c *checker) deriveRuntimeFilter(n *plan.RuntimeFilterNode) *info {
	ci := c.visit(n.Child)
	if ci.sch.Index(n.Col) < 0 {
		c.report(RuleTransfer, n, "filters column %q, which its input %v does not carry", n.Col, ci.sch.Names())
	}
	return &info{prop: ci.prop.Clone(), sch: ci.sch, contentRepl: ci.contentRepl}
}

func (c *checker) deriveProject(n *plan.ProjectNode) *info {
	ci := c.visit(n.Child)
	if ci.prop.Dup() {
		c.report(RuleDupLeak, n,
			"projection over input with live dup columns %v (Section 2.2 requires PREF-duplicate elimination first)",
			ci.prop.DupCols())
	}
	if len(n.Exprs) != len(n.Names) {
		c.report(RuleMalformed, n, "projection arity mismatch: %d exprs, %d names", len(n.Exprs), len(n.Names))
		return &info{prop: ci.prop.Clone(), sch: plan.Schema{}, contentRepl: ci.contentRepl}
	}
	out := make(plan.Schema, len(n.Exprs))
	for i, e := range n.Exprs {
		if e == nil {
			c.report(RuleMalformed, n, "nil projection expression for %q", n.Names[i])
			out[i] = plan.Field{Name: n.Names[i], Kind: value.Int}
			continue
		}
		if _, err := e.Bind(ci.sch); err != nil {
			c.report(RuleMalformed, n, "projection %q does not bind: %v", n.Names[i], err)
		}
		out[i] = plan.Field{Name: n.Names[i], Kind: e.Kind(ci.sch)}
	}
	return &info{prop: ci.prop.Clone(), sch: out, contentRepl: ci.contentRepl}
}

func (c *checker) deriveAggregate(n *plan.AggregateNode) *info {
	ci := c.visit(n.Child)
	cp := ci.prop
	c.checkAggBinds(n, n.GroupBy, n.Aggs, ci.sch)

	if cp.Dup() {
		c.report(RuleDupLeak, n, "aggregation over input with live dup columns %v", cp.DupCols())
	}

	if len(n.GroupBy) == 0 {
		// Physical plans only contain a group-less AggregateNode above a
		// Gather (the COUNT DISTINCT fallback); anywhere else the partial/
		// final pair should have been used and a bare global aggregate
		// would double-count across partitions.
		if !cp.Gathered && !cp.Repl {
			c.report(RuleLocality, n, "global aggregate over partitioned, un-gathered input")
		}
		out := make(plan.Schema, 0, len(n.Aggs))
		for _, a := range n.Aggs {
			out = append(out, plan.Field{Name: a.As, Kind: c.kindOfAgg(a, ci.sch)})
		}
		return &info{prop: &plan.Prop{Parts: cp.Parts, Gathered: true}, sch: out}
	}

	// Grouped aggregation is local-safe iff each node holds every row of
	// each of its groups: replicated input, or hash placement covered by
	// the group-by columns (modulo upstream equivalences). A duplicate-free
	// PREF input grouped by its referencing columns holds every group whose
	// rows have a partner; its orphan groups may be split (prefGrouped).
	orphans := ""
	if !cp.Repl && !(cp.HashCols() != nil && hashCoveredBy(cp, n.GroupBy)) {
		if orphans = c.prefGrouped(cp, n.GroupBy); orphans == "" {
			c.report(RuleLocality, n,
				"grouped aggregation over input not co-partitioned by its group (method %s, hash %v, group-by %v)",
				cp.Method(), cp.HashCols(), n.GroupBy)
		}
	}

	out := make(plan.Schema, 0, len(n.GroupBy)+len(n.Aggs))
	for _, g := range n.GroupBy {
		i := ci.sch.Index(g)
		kind := value.Int
		if i >= 0 {
			kind = ci.sch[i].Kind
		}
		out = append(out, plan.Field{Name: g, Kind: kind})
	}
	for _, a := range n.Aggs {
		out = append(out, plan.Field{Name: a.As, Kind: c.kindOfAgg(a, ci.sch)})
	}
	np := &plan.Prop{Parts: cp.Parts, Repl: cp.Repl, Placed: map[string]plan.PlacedEntry{}}
	if allIn(cp.HashCols(), n.GroupBy) {
		np.SetHashCols(cp.HashCols())
	}
	if orphans != "" {
		np.Placed[orphans], np.Orphans = cp.Placed[orphans], orphans
	}
	return &info{prop: np, sch: out, contentRepl: cp.Repl}
}

// prefGrouped returns the alias, first in name order, of a PREF placement
// the aggregate's input carries that makes grouping by groupBy local but
// for orphans, or "" when there is none. The placed table must store each
// tuple once (Config.DupFree) and the input must carry no live dup column;
// every referencing column of its predicate must be grouped by. By
// Definition 1 a tuple with a partner is stored on the partition of that
// partner, which is unique, so all rows of a group with a partner meet there.
// A tuple without one (hasRef = 0) is placed by the orphan rule, so an orphan
// group may be split across partitions; the output is marked with the alias
// (Prop.Orphans), and checkOrphans lets only a consumer through where such a
// group dies.
func (c *checker) prefGrouped(cp *plan.Prop, groupBy []string) string {
	if cp.Dup() {
		return ""
	}
	aliases := make([]string, 0, len(cp.Placed))
	for a := range cp.Placed {
		aliases = append(aliases, a)
	}
	slices.Sort(aliases)
	for _, a := range aliases {
		e := cp.Placed[a]
		if e.Scheme == nil || e.Scheme.Method != partition.Pref || !c.cfg.DupFree(c.cat, e.Table) {
			continue
		}
		covered := true
		for _, col := range qualify(a, e.Scheme.Pred.ReferencingCols) {
			covered = covered && slices.ContainsFunc(groupBy, func(g string) bool { return cp.EquivSame(col, g) })
		}
		if covered {
			return a
		}
	}
	return ""
}

// checkOrphans holds every consumer of an input whose orphan groups may be
// split (Prop.Orphans) to one where they cannot reach the output: a Filter,
// a Project or a runtime filter, which keep rows where they are and pass the
// mark on, or the inner join on the marked alias's PREF predicate, against
// its referenced table placed intact (deriveJoin), where an orphan group
// meets no partner. A shipment, a second aggregation or any other join would
// merge or count a split group's parts as if each were whole.
func (c *checker) checkOrphans(n plan.Node) {
	switch n.(type) {
	case *plan.FilterNode, *plan.ProjectNode, *plan.RuntimeFilterNode, *plan.JoinNode:
		return
	}
	for _, k := range n.Children() {
		if in := c.memo[k]; in != nil && in.prop.Orphans != "" {
			c.report(RuleLocality, n, "consumes %s, whose orphan groups of %s may be split across partitions", k, in.prop.Orphans)
		}
	}
}

func (c *checker) derivePartialAgg(n *plan.PartialAggNode) *info {
	ci := c.visit(n.Child)
	if ci.prop.Dup() {
		c.report(RuleDupLeak, n, "partial aggregation over input with live dup columns %v", ci.prop.DupCols())
	}
	c.checkAggBinds(n, n.GroupBy, n.Aggs, ci.sch)
	return &info{
		prop:        &plan.Prop{Parts: ci.prop.Parts},
		sch:         c.partialSchema(n.GroupBy, n.Aggs, ci.sch),
		contentRepl: ci.contentRepl,
	}
}

func (c *checker) deriveFinalAgg(n *plan.FinalAggNode) *info {
	ci := c.visit(n.Child)
	cp := ci.prop
	np := &plan.Prop{Parts: cp.Parts, Gathered: true}
	switch {
	case cp.Gathered:
		// Coordinator-side merge of gathered partials.
	case len(n.GroupBy) > 0 && !cp.Dup() && allIn(cp.HashCols(), n.GroupBy):
		// Distributed merge: the partials were hash-placed on group-by
		// columns, so every state of a group sits on one partition and each
		// node merges its own groups. The placement survives the merge.
		np = &plan.Prop{Parts: cp.Parts, Placed: map[string]plan.PlacedEntry{}}
		np.SetHashCols(cp.HashCols())
	default:
		c.report(RuleLocality, n,
			"final aggregate over partials neither gathered nor co-partitioned by their group (method %s, hash %v, group-by %v)",
			cp.Method(), cp.HashCols(), n.GroupBy)
	}
	// A FinalAgg reads its partner PartialAgg's state columns (a.As, or
	// a.As$sum/$cnt for AVG) from the gathered schema; the Arg expressions
	// are not re-bound. Output kinds follow the state columns.
	out := make(plan.Schema, 0, len(n.GroupBy)+len(n.Aggs))
	for _, g := range n.GroupBy {
		i := ci.sch.Index(g)
		kind := value.Int
		if i < 0 {
			c.report(RuleMalformed, n, "group-by column %q not in partial schema %v", g, ci.sch.Names())
		} else {
			kind = ci.sch[i].Kind
		}
		out = append(out, plan.Field{Name: g, Kind: kind})
	}
	for _, a := range n.Aggs {
		kind := value.Int
		switch a.Fn {
		case plan.CountFn, plan.CountDistinctFn:
			kind = value.Int
			if ci.sch.Index(a.As) < 0 {
				c.report(RuleMalformed, n, "partial state column %q missing from %v", a.As, ci.sch.Names())
			}
		case plan.AvgFn:
			kind = value.Float
			if ci.sch.Index(a.As+"$sum") < 0 || ci.sch.Index(a.As+"$cnt") < 0 {
				c.report(RuleMalformed, n, "AVG partial state columns for %q missing from %v", a.As, ci.sch.Names())
			}
		default:
			i := ci.sch.Index(a.As)
			if i < 0 {
				c.report(RuleMalformed, n, "partial state column %q missing from %v", a.As, ci.sch.Names())
			} else {
				kind = ci.sch[i].Kind
			}
		}
		out = append(out, plan.Field{Name: a.As, Kind: kind})
	}
	return &info{prop: np, sch: out}
}

func (c *checker) deriveTopK(n *plan.TopKNode) *info {
	ci := c.visit(n.Child)
	for _, o := range n.Order {
		if ci.sch.Index(o.Col) < 0 {
			c.report(RuleMalformed, n, "order column %q not in input schema %v", o.Col, ci.sch.Names())
		}
	}
	c.checkBarrier(n, ci, "ties break by the full row")
	if n.Final {
		if !ci.prop.Gathered {
			c.report(RuleLocality, n, "final top-k over un-gathered input (method %s)", ci.prop.Method())
		}
		return &info{prop: &plan.Prop{Parts: ci.prop.Parts, Gathered: true}, sch: ci.sch}
	}
	if ci.prop.Dup() {
		c.report(RuleDupLeak, n,
			"partial top-k over input with live dup columns %v (duplicate copies would crowd out distinct rows)",
			ci.prop.DupCols())
	}
	return &info{prop: &plan.Prop{Parts: ci.prop.Parts}, sch: ci.sch, contentRepl: ci.contentRepl}
}

func (c *checker) deriveRepartition(n *plan.RepartitionNode) *info {
	ci := c.visit(n.Child)
	cp := ci.prop
	if len(n.Cols) == 0 {
		c.report(RuleMalformed, n, "repartition with no hash columns")
	}
	for _, col := range n.Cols {
		if ci.sch.Index(col) < 0 {
			c.report(RuleMalformed, n, "repartition column %q not in input schema %v", col, ci.sch.Names())
		}
	}
	c.checkShipDedup(n, n.DupCols, cp, ci.sch)
	if n.OneCopy != cp.Repl {
		c.report(RuleMalformed, n, "OneCopy=%v disagrees with input replication %v", n.OneCopy, cp.Repl)
	}
	np := &plan.Prop{Parts: cp.Parts, Placed: map[string]plan.PlacedEntry{}}
	np.SetHashCols(n.Cols)
	return &info{prop: np, sch: ci.sch}
}

func (c *checker) deriveBroadcast(n *plan.BroadcastNode) *info {
	ci := c.visit(n.Child)
	cp := ci.prop
	c.checkShipDedup(n, n.DupCols, cp, ci.sch)
	if n.OneCopy != cp.Repl {
		c.report(RuleMalformed, n, "OneCopy=%v disagrees with input replication %v", n.OneCopy, cp.Repl)
	}
	np := &plan.Prop{Parts: cp.Parts, Repl: true, Placed: map[string]plan.PlacedEntry{}}
	return &info{prop: np, sch: ci.sch, contentRepl: true}
}

// checkShipDedup validates a shipping operator's in-flight dedup list: it
// must cover every live dup column of the input (a missed column ships
// PREF duplicates into a placement that can no longer tell them apart),
// and every listed column must exist.
func (c *checker) checkShipDedup(n plan.Node, dedup []string, cp *plan.Prop, sch plan.Schema) {
	for _, col := range dedup {
		if sch.Index(col) < 0 {
			c.report(RuleMalformed, n, "dedup column %q not in input schema %v", col, sch.Names())
		}
	}
	for _, live := range cp.DupCols() {
		found := false
		for _, d := range dedup {
			if d == live {
				found = true
				break
			}
		}
		if !found {
			c.report(RuleDupLeak, n, "ships live dup column %v without deduplicating on it", live)
		}
	}
}

func (c *checker) deriveGather(n *plan.GatherNode) *info {
	ci := c.visit(n.Child)
	if ci.prop.Dup() {
		c.report(RuleDupLeak, n, "gather ships live dup columns %v to the coordinator", ci.prop.DupCols())
	}
	if n.OneCopy != ci.contentRepl {
		c.report(RuleMalformed, n, "OneCopy=%v disagrees with input content replication %v", n.OneCopy, ci.contentRepl)
	}
	return &info{prop: &plan.Prop{Parts: ci.prop.Parts, Gathered: true}, sch: ci.sch}
}

func (c *checker) deriveDistinctPref(n *plan.DistinctPrefNode) *info {
	ci := c.visit(n.Child)
	cp := ci.prop
	for _, col := range n.DupCols {
		if ci.sch.Index(col) < 0 {
			c.report(RuleMalformed, n, "dup column %q not in input schema %v", col, ci.sch.Names())
		}
	}
	for _, live := range cp.DupCols() {
		found := false
		for _, d := range n.DupCols {
			if d == live {
				found = true
				break
			}
		}
		if !found {
			c.report(RuleDupLeak, n, "distinct-pref does not filter live dup column %v", live)
		}
	}
	np := cp.Clone()
	np.SetDupCols(nil)
	return &info{prop: np, sch: ci.sch, contentRepl: ci.contentRepl}
}

func (c *checker) deriveDistinctByValue(n *plan.DistinctByValueNode) *info {
	ci := c.visit(n.Child)
	var want []string
	for _, f := range ci.sch {
		if !plan.IsHiddenCol(f.Name) {
			want = append(want, f.Name)
		}
	}
	if !sameCols(n.Cols, want) {
		c.report(RuleMalformed, n, "value-distinct identity columns %v differ from visible schema %v", n.Cols, want)
	}
	c.checkBarrier(n, ci, "row identity is every visible column")
	np := ci.prop.Clone()
	np.SetDupCols(nil)
	np.SetHashCols(nil)
	np.Placed = map[string]plan.PlacedEntry{}
	return &info{prop: np, sch: ci.sch, contentRepl: ci.contentRepl}
}

// checkBarrier rejects column pruning beneath an operator whose result
// depends on every column of its input: a dropped column would change which
// rows survive, not just how wide they are.
func (c *checker) checkBarrier(n plan.Node, ci *info, why string) {
	if !schemaEqual(ci.sch, ci.full) {
		c.report(RuleMalformed, n, "input pruned to %v of %v, but %s", ci.sch.Names(), ci.full.Names(), why)
	}
}

// checkRoot enforces the output contract: the root must be duplicate-free,
// expose no hidden index columns, and lose no column to pruning.
func (c *checker) checkRoot(root plan.Node, in *info) {
	if !schemaEqual(in.sch, in.full) {
		c.report(RuleMalformed, root, "plan root produces %v, the unpruned plan %v: pruning changed the result",
			in.sch.Names(), in.full.Names())
	}
	if in.prop.Dup() {
		c.report(RuleDupLeak, root, "plan root has live dup columns %v: results would contain PREF duplicates", in.prop.DupCols())
	}
	if in.prop.Orphans != "" {
		c.report(RuleLocality, root, "plan root returns orphan groups of %s that may be split across partitions", in.prop.Orphans)
	}
	for _, f := range in.sch {
		if plan.IsHiddenCol(f.Name) {
			c.report(RuleDupLeak, root, "plan root leaks hidden index column %q", f.Name)
		}
	}
}

// diff compares the checker's derived annotation against what the rewrite
// recorded for the node.
func (c *checker) diff(n plan.Node, in *info) {
	rec, ok := c.rw.Props[n]
	if !ok || rec == nil {
		c.report(RuleMalformed, n, "operator has no recorded properties")
		return
	}
	recSch, ok := c.rw.Schemas[n]
	if !ok {
		c.report(RuleMalformed, n, "operator has no recorded schema")
	} else if !schemaEqual(recSch, in.sch) {
		c.report(RuleStaleProp, n, "recorded schema %v differs from derived %v", describeSchema(recSch), describeSchema(in.sch))
	}

	d := in.prop
	if rec.Parts != d.Parts {
		c.report(RuleStaleProp, n, "recorded Parts=%d, derived %d", rec.Parts, d.Parts)
	}
	if rec.Repl != d.Repl {
		c.report(RuleStaleProp, n, "recorded Repl=%v, derived %v", rec.Repl, d.Repl)
	}
	if rec.Gathered != d.Gathered {
		c.report(RuleStaleProp, n, "recorded Gathered=%v, derived %v", rec.Gathered, d.Gathered)
	}
	if !hashColsEqual(rec.HashCols(), d.HashCols()) {
		c.report(RuleStaleProp, n, "recorded HashCols=%v, derived %v", rec.HashCols(), d.HashCols())
	}
	if !colSetEqual(rec.DupCols(), d.DupCols()) {
		c.report(RuleStaleProp, n, "recorded DupCols=%v, derived %v", rec.DupCols(), d.DupCols())
	}
	if rec.Orphans != d.Orphans {
		c.report(RuleStaleProp, n, "recorded Orphans=%q, derived %q", rec.Orphans, d.Orphans)
	}
	if !placedEqual(rec.Placed, d.Placed) {
		c.report(RuleStaleProp, n, "recorded Placed=%v, derived %v", placedKeys(rec.Placed), placedKeys(d.Placed))
	}
	// Equiv is not diffed: it is derived bookkeeping whose class order is
	// an implementation detail; the checker recomputes its own for the
	// locality decisions above.
}

// ---- helpers shared by the transfer rules ----

func (c *checker) checkAggBinds(n plan.Node, groupBy []string, aggs []plan.AggExpr, sch plan.Schema) {
	for _, g := range groupBy {
		if sch.Index(g) < 0 {
			c.report(RuleMalformed, n, "group-by column %q not in input schema %v", g, sch.Names())
		}
	}
	for _, a := range aggs {
		if a.Arg != nil {
			if _, err := a.Arg.Bind(sch); err != nil {
				c.report(RuleMalformed, n, "aggregate %s argument does not bind: %v", a.As, err)
			}
		}
	}
}

// kindOfAgg mirrors the rewriter's aggregate output typing.
func (c *checker) kindOfAgg(a plan.AggExpr, in plan.Schema) value.Kind {
	switch a.Fn {
	case plan.CountFn, plan.CountDistinctFn:
		return value.Int
	case plan.AvgFn:
		return value.Float
	default:
		if a.Arg != nil {
			return a.Arg.Kind(in)
		}
		return value.Int
	}
}

// partialSchema mirrors the rewriter's PartialAgg state layout.
func (c *checker) partialSchema(groupBy []string, aggs []plan.AggExpr, in plan.Schema) plan.Schema {
	out := make(plan.Schema, 0, len(groupBy)+len(aggs)+1)
	for _, g := range groupBy {
		kind := value.Int
		if i := in.Index(g); i >= 0 {
			kind = in[i].Kind
		}
		out = append(out, plan.Field{Name: g, Kind: kind})
	}
	for _, a := range aggs {
		if a.Fn == plan.AvgFn {
			out = append(out,
				plan.Field{Name: a.As + "$sum", Kind: c.kindOfAgg(plan.AggExpr{Fn: plan.SumFn, Arg: a.Arg}, in)},
				plan.Field{Name: a.As + "$cnt", Kind: value.Int})
		} else {
			out = append(out, plan.Field{Name: a.As, Kind: c.kindOfAgg(a, in)})
		}
	}
	return out
}

// allIn reports whether every element of a appears literally in b
// (false for empty a, matching the rewriter's hash-survival rule).
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
func hashCoveredBy(p *plan.Prop, groupBy []string) bool {
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

func qualify(alias string, cols []string) []string {
	out := make([]string, len(cols))
	for i, col := range cols {
		out[i] = plan.Qualify(alias, col)
	}
	return out
}

func sameCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hashColsEqual treats nil and empty as equal, and otherwise compares in
// order (hash placement is positional).
func hashColsEqual(a, b []string) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return sameCols(a, b)
}

// colSetEqual compares column lists as sets (dup-column order is
// insignificant: the disjunctive filter commutes).
func colSetEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]int{}
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		m[x]--
		if m[x] < 0 {
			return false
		}
	}
	return true
}

func placedEqual(a, b map[string]plan.PlacedEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va.Table != vb.Table || va.Scheme != vb.Scheme {
			return false
		}
	}
	return true
}

func placedKeys(m map[string]plan.PlacedEntry) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+":"+v.Table)
	}
	return out
}

func schemaEqual(a, b plan.Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Kind != b[i].Kind {
			return false
		}
	}
	return true
}

func describeSchema(s plan.Schema) []string {
	out := make([]string, len(s))
	for i, f := range s {
		out[i] = fmt.Sprintf("%s:%v", f.Name, f.Kind)
	}
	return out
}
