package check_test

import (
	"strings"
	"testing"

	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/value"
)

// miniSchema is a 4-table TPC-H-shaped catalog: lineitem (seed), orders
// (hash-equivalent PREF chain), customer (duplicate-carrying PREF), and a
// replicated nation.
func miniSchema(t *testing.T) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema("mini")
	s.MustAddTable(catalog.MustTable("lineitem", []catalog.Column{
		{Name: "l_orderkey", Kind: value.Int},
		{Name: "l_partkey", Kind: value.Int},
		{Name: "l_qty", Kind: value.Int},
	}, "l_orderkey", "l_partkey"))
	s.MustAddTable(catalog.MustTable("orders", []catalog.Column{
		{Name: "o_orderkey", Kind: value.Int},
		{Name: "o_custkey", Kind: value.Int},
		{Name: "o_total", Kind: value.Money},
	}, "o_orderkey"))
	s.MustAddTable(catalog.MustTable("customer", []catalog.Column{
		{Name: "c_custkey", Kind: value.Int},
		{Name: "c_name", Kind: value.Str},
		{Name: "c_nation", Kind: value.Int},
	}, "c_custkey"))
	s.MustAddTable(catalog.MustTable("nation", []catalog.Column{
		{Name: "n_nationkey", Kind: value.Int},
		{Name: "n_name", Kind: value.Str},
	}, "n_nationkey"))
	return s
}

// miniSD mirrors the paper's SD shape: orders rides a hash-equivalent
// chain on lineitem; customer is PREF on orders by custkey, which is not
// hash-equivalent and not redundancy-free, so customer carries live dup
// columns — the interesting case for the duplicate-freedom rules.
func miniSD(t *testing.T, sch *catalog.Schema) *partition.Config {
	t.Helper()
	cfg := partition.NewConfig(4)
	cfg.SetHash("lineitem", "l_orderkey")
	cfg.SetPref("orders", "lineitem", []string{"o_orderkey"}, []string{"l_orderkey"})
	cfg.SetPref("customer", "orders", []string{"c_custkey"}, []string{"o_custkey"})
	cfg.SetReplicated("nation")
	if err := cfg.Validate(sch); err != nil {
		t.Fatalf("fixture config invalid: %v", err)
	}
	return cfg
}

func mustRewrite(t *testing.T, root plan.Node, sch *catalog.Schema, cfg *partition.Config) *plan.Rewritten {
	t.Helper()
	rw, err := plan.Rewrite(root, sch, cfg, plan.Options{})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	return rw
}

// findNode returns the first node (pre-order) matching pred.
func findNode(root plan.Node, pred func(plan.Node) bool) plan.Node {
	if pred(root) {
		return root
	}
	for _, c := range root.Children() {
		if n := findNode(c, pred); n != nil {
			return n
		}
	}
	return nil
}

// expectRule asserts that Verify fails and reports the given rule.
func expectRule(t *testing.T, rw *plan.Rewritten, rule check.Rule) {
	t.Helper()
	err := check.Verify(rw)
	if err == nil {
		t.Fatalf("Verify passed; want a %s violation", rule)
	}
	vs := check.ViolationsOf(err)
	if vs == nil {
		t.Fatalf("Verify returned a foreign error: %v", err)
	}
	if !vs.HasRule(rule) {
		t.Fatalf("Verify reported %v; want a %s violation", err, rule)
	}
}

// ---- positive cases: rewrite output always verifies ----

func TestVerifyPassesOnRewrittenPlans(t *testing.T) {
	sch := miniSchema(t)
	cfg := miniSD(t, sch)
	plans := map[string]plan.Node{
		"pref-join": plan.Join(
			plan.Scan("orders", "o"), plan.Scan("lineitem", "l"),
			plan.Inner, []string{"o.o_orderkey"}, []string{"l.l_orderkey"}),
		"dup-project": plan.ProjectCols(plan.Scan("customer", "c"), "c.c_custkey"),
		"misaligned-join": plan.Join(
			plan.Scan("customer", "c"), plan.Scan("lineitem", "l"),
			plan.Inner, []string{"c.c_custkey"}, []string{"l.l_partkey"}),
		"semi-join": plan.Join(
			plan.Scan("orders", "o"), plan.Scan("lineitem", "l"),
			plan.Semi, []string{"o.o_orderkey"}, []string{"l.l_orderkey"}),
		"replicated-join": plan.Join(
			plan.Scan("customer", "c"), plan.Scan("nation", "n"),
			plan.Inner, []string{"c.c_nation"}, []string{"n.n_nationkey"}),
		"grouped-agg": plan.Aggregate(
			plan.Scan("orders", "o"), []string{"o.o_orderkey"},
			plan.Sum(plan.Col("o.o_total"), "total")),
		"global-agg": plan.Aggregate(
			plan.Scan("customer", "c"), nil, plan.Count("n")),
		"topk": plan.TopK(plan.Scan("orders", "o"), 5,
			plan.OrderSpec{Col: "o.o_total", Desc: true}),
	}
	for name, p := range plans {
		t.Run(name, func(t *testing.T) {
			rw := mustRewrite(t, p, sch, cfg)
			if err := check.Verify(rw); err != nil {
				t.Fatalf("Verify failed on a legitimate rewritten plan:\n%v\nplan:\n%s", err, rw.Explain())
			}
		})
	}
}

func TestVerifyDesignPassesOnValidConfigs(t *testing.T) {
	sch := miniSchema(t)
	if err := check.VerifyDesign(sch, miniSD(t, sch)); err != nil {
		t.Fatalf("VerifyDesign failed on a valid config: %v", err)
	}
}

// ---- mutation 1: missing Repartition → locality ----

func TestVerifyRejectsMissingRepartition(t *testing.T) {
	sch := miniSchema(t)
	cfg := miniSD(t, sch)
	q := plan.Join(plan.Scan("customer", "c"), plan.Scan("lineitem", "l"),
		plan.Inner, []string{"c.c_custkey"}, []string{"l.l_partkey"})
	rw := mustRewrite(t, q, sch, cfg)

	jn := findNode(rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.JoinNode); return ok }).(*plan.JoinNode)
	rep, ok := jn.Left.(*plan.RepartitionNode)
	if !ok {
		t.Fatalf("fixture drift: join left is %T, want Repartition\n%s", jn.Left, rw.Explain())
	}
	jn.Left = rep.Child // splice the shuffle out
	expectRule(t, rw, check.RuleLocality)
}

// ---- mutation 2: leaked DupCols → dup-leak ----

func TestVerifyRejectsLeakedDupCols(t *testing.T) {
	sch := miniSchema(t)
	cfg := miniSD(t, sch)
	q := plan.ProjectCols(plan.Scan("customer", "c"), "c.c_custkey")
	rw := mustRewrite(t, q, sch, cfg)

	pn := findNode(rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.ProjectNode); return ok }).(*plan.ProjectNode)
	d, ok := pn.Child.(*plan.DistinctPrefNode)
	if !ok {
		t.Fatalf("fixture drift: project child is %T, want DistinctPref\n%s", pn.Child, rw.Explain())
	}
	pn.Child = d.Child // drop the duplicate elimination
	expectRule(t, rw, check.RuleDupLeak)
}

func TestVerifyRejectsUncoveredShipDedup(t *testing.T) {
	sch := miniSchema(t)
	cfg := miniSD(t, sch)
	// A grouped COUNT(DISTINCT) has no mergeable partial state: the rewrite
	// must repartition the raw rows and dedup the PREF duplicates in transit.
	q := plan.Aggregate(plan.Scan("customer", "c"), []string{"c.c_nation"},
		plan.CountDistinct(plan.Col("c.c_custkey"), "n"))
	rw := mustRewrite(t, q, sch, cfg)

	rep := findNode(rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.RepartitionNode); return ok }).(*plan.RepartitionNode)
	if len(rep.DupCols) == 0 {
		t.Fatalf("fixture drift: repartition has no dedup columns\n%s", rw.Explain())
	}
	rep.DupCols = nil // ship the duplicates
	expectRule(t, rw, check.RuleDupLeak)
}

// ---- mutations of the grouped two-phase aggregate ----

// twoPhaseAgg rewrites a grouped aggregate whose group-by the PREF placement
// does not cover, and returns the FinalAgg → Repartition → PartialAgg spine.
func twoPhaseAgg(t *testing.T) (*plan.Rewritten, *plan.FinalAggNode, *plan.RepartitionNode, *plan.PartialAggNode) {
	t.Helper()
	sch := miniSchema(t)
	q := plan.Aggregate(plan.Scan("customer", "c"), []string{"c.c_nation"}, plan.Count("n"))
	rw := mustRewrite(t, q, sch, miniSD(t, sch))
	fin, ok := rw.Root.(*plan.FinalAggNode)
	if !ok {
		t.Fatalf("fixture drift: root is %T, want FinalAgg\n%s", rw.Root, rw.Explain())
	}
	rep, ok := fin.Child.(*plan.RepartitionNode)
	if !ok {
		t.Fatalf("fixture drift: FinalAgg child is %T, want Repartition\n%s", fin.Child, rw.Explain())
	}
	partial, ok := rep.Child.(*plan.PartialAggNode)
	if !ok {
		t.Fatalf("fixture drift: Repartition child is %T, want PartialAgg\n%s", rep.Child, rw.Explain())
	}
	return rw, fin, rep, partial
}

func TestVerifyRejectsFinalAggWithoutExchange(t *testing.T) {
	rw, fin, rep, _ := twoPhaseAgg(t)
	fin.Child = rep.Child // merge each partition's partials where they were computed
	expectRule(t, rw, check.RuleLocality)
}

func TestVerifyRejectsPartialsShippedOffGroup(t *testing.T) {
	rw, _, rep, _ := twoPhaseAgg(t)
	rep.Cols = []string{"n"} // a group's states scatter by their own count
	rw.Props[rep].SetHashCols([]string{"n"})
	expectRule(t, rw, check.RuleLocality)
}

func TestVerifyRejectsPartialAggOverDuplicates(t *testing.T) {
	rw, _, _, partial := twoPhaseAgg(t)
	d, ok := partial.Child.(*plan.DistinctPrefNode)
	if !ok {
		t.Fatalf("fixture drift: PartialAgg child is %T, want DistinctPref\n%s", partial.Child, rw.Explain())
	}
	partial.Child = d.Child // pre-aggregate every PREF copy
	expectRule(t, rw, check.RuleDupLeak)
}

// ---- mutations of the pruned schemas ----

// prunedExchange rewrites a misaligned join under an aggregate that reads two
// of lineitem's three columns, and returns the lineitem-side Repartition,
// which records exactly those: its hash key and the summed quantity.
func prunedExchange(t *testing.T) (*plan.Rewritten, *plan.RepartitionNode) {
	t.Helper()
	sch := miniSchema(t)
	q := plan.Aggregate(
		plan.Join(plan.Scan("customer", "c"), plan.Scan("lineitem", "l"),
			plan.Inner, []string{"c.c_custkey"}, []string{"l.l_partkey"}),
		[]string{"c.c_nation"}, plan.Sum(plan.Col("l.l_qty"), "qty"))
	rw := mustRewrite(t, q, sch, miniSD(t, sch))
	jn := findNode(rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.JoinNode); return ok }).(*plan.JoinNode)
	rep, ok := jn.Right.(*plan.RepartitionNode)
	if !ok {
		t.Fatalf("fixture drift: join right is %T, want Repartition\n%s", jn.Right, rw.Explain())
	}
	if got := rw.Schema(rep).Names(); len(got) != 2 || got[0] != "l.l_partkey" || got[1] != "l.l_qty" {
		t.Fatalf("fixture drift: repartition records %v, want [l.l_partkey l.l_qty]\n%s", got, rw.Explain())
	}
	if err := check.Verify(rw); err != nil {
		t.Fatalf("Verify failed before any mutation: %v", err)
	}
	return rw, rep
}

func TestVerifyRejectsDeadColumnInExchange(t *testing.T) {
	rw, rep := prunedExchange(t)
	// Ship l_orderkey as well: a legal subset of the scan's schema that the
	// join binds against happily — and that nothing above ever reads.
	rw.Schemas[rep] = rw.Schema(rep.Child)[:3]
	expectRule(t, rw, check.RuleDeadColumn)
}

func TestVerifyRejectsPrunedJoinKey(t *testing.T) {
	rw, rep := prunedExchange(t)
	rw.Schemas[rep] = rw.Schema(rep)[1:] // drop l_partkey, which the join probes on
	expectRule(t, rw, check.RuleMalformed)
}

func TestVerifyRejectsReorderedExchangeSchema(t *testing.T) {
	rw, rep := prunedExchange(t)
	rec := rw.Schema(rep)
	rw.Schemas[rep] = plan.Schema{rec[1], rec[0]} // the engine copies in child order
	expectRule(t, rw, check.RuleStaleProp)
}

func TestVerifyRejectsPruningTheResultOrATopKInput(t *testing.T) {
	sch := miniSchema(t)
	cfg := miniSD(t, sch)
	join := func() plan.Node {
		return plan.Join(plan.Scan("customer", "c"), plan.Scan("lineitem", "l"),
			plan.Inner, []string{"c.c_custkey"}, []string{"l.l_partkey"})
	}
	isJoin := func(n plan.Node) bool { _, ok := n.(*plan.JoinNode); return ok }

	// The root's schema is the query's result: every column is read. (Hash
	// placement everywhere, so no hidden column needs projecting away and the
	// join itself is the root.)
	hashed := partition.NewConfig(4)
	hashed.SetHash("customer", "c_custkey").SetHash("lineitem", "l_orderkey")
	rw := mustRewrite(t, join(), sch, hashed)
	if !isJoin(rw.Root) {
		t.Fatalf("fixture drift: root is %T, want the join\n%s", rw.Root, rw.Explain())
	}
	rw.Schemas[rw.Root] = rw.Schema(rw.Root)[1:]
	expectRule(t, rw, check.RuleMalformed)

	// Top-k breaks ties by the full row: its input keeps every column even
	// though the projection above reads one.
	q := plan.ProjectCols(plan.TopK(join(), 3, plan.OrderSpec{Col: "l.l_qty"}), "l.l_qty")
	rw = mustRewrite(t, q, sch, cfg)
	if err := check.Verify(rw); err != nil {
		t.Fatalf("Verify failed before any mutation: %v", err)
	}
	jn := findNode(rw.Root, isJoin)
	narrowed := rw.Schema(jn)[1:]
	for n, s := range rw.Schemas {
		if len(s) == len(narrowed)+1 { // the join and the views and top-ks above it
			rw.Schemas[n] = narrowed
		}
	}
	expectRule(t, rw, check.RuleMalformed)
}

// ---- mutation 3: cyclic PREF chain → design-cycle ----

func TestVerifyDesignRejectsCycle(t *testing.T) {
	sch := miniSchema(t)
	cfg := partition.NewConfig(4)
	cfg.SetPref("orders", "customer", []string{"o_custkey"}, []string{"c_custkey"})
	cfg.SetPref("customer", "orders", []string{"c_custkey"}, []string{"o_custkey"})
	err := check.VerifyDesign(sch, cfg)
	if err == nil || !check.ViolationsOf(err).HasRule(check.RuleDesignCycle) {
		t.Fatalf("got %v; want a %s violation", err, check.RuleDesignCycle)
	}
}

// ---- mutation 4: wrong seed root → design-seed ----

func TestVerifyDesignRejectsReplicatedSeed(t *testing.T) {
	sch := miniSchema(t)
	cfg := partition.NewConfig(4)
	cfg.SetReplicated("customer")
	cfg.SetPref("orders", "customer", []string{"o_custkey"}, []string{"c_custkey"})
	err := check.VerifyDesign(sch, cfg)
	if err == nil || !check.ViolationsOf(err).HasRule(check.RuleDesignSeed) {
		t.Fatalf("got %v; want a %s violation", err, check.RuleDesignSeed)
	}
}

func TestVerifyDesignRejectsDanglingChain(t *testing.T) {
	sch := miniSchema(t)
	cfg := partition.NewConfig(4)
	cfg.SetPref("orders", "customer", []string{"o_custkey"}, []string{"c_custkey"})
	// customer has no scheme at all.
	err := check.VerifyDesign(sch, cfg)
	if err == nil || !check.ViolationsOf(err).HasRule(check.RuleDesignSeed) {
		t.Fatalf("got %v; want a %s violation", err, check.RuleDesignSeed)
	}
}

// ---- mutation 5: type-incompatible predicate → design-type ----

func TestVerifyDesignRejectsTypeMismatch(t *testing.T) {
	sch := miniSchema(t)
	cfg := partition.NewConfig(4)
	cfg.SetHash("customer", "c_custkey")
	// Pairs Str c_name with Int c... o_custkey: not equi-join compatible.
	cfg.SetPref("orders", "customer", []string{"o_custkey"}, []string{"c_name"})
	err := check.VerifyDesign(sch, cfg)
	if err == nil || !check.ViolationsOf(err).HasRule(check.RuleDesignType) {
		t.Fatalf("got %v; want a %s violation", err, check.RuleDesignType)
	}
}

func TestVerifyDesignRejectsUnknownColumn(t *testing.T) {
	sch := miniSchema(t)
	cfg := partition.NewConfig(4)
	cfg.SetHash("lineitem", "no_such_col")
	err := check.VerifyDesign(sch, cfg)
	if err == nil || !check.ViolationsOf(err).HasRule(check.RuleDesignColumn) {
		t.Fatalf("got %v; want a %s violation", err, check.RuleDesignColumn)
	}
}

func TestVerifyDesignRejectsBadShape(t *testing.T) {
	sch := miniSchema(t)
	cfg := partition.NewConfig(4)
	cfg.Set(&partition.TableScheme{Table: "lineitem", Method: partition.Range,
		Cols: []string{"l_orderkey"}, Bounds: []int64{10, 5, 20}})
	err := check.VerifyDesign(sch, cfg)
	if err == nil || !check.ViolationsOf(err).HasRule(check.RuleDesignShape) {
		t.Fatalf("got %v; want a %s violation", err, check.RuleDesignShape)
	}
}

// ---- mutation 6: stale recorded Prop → stale-prop ----

func TestVerifyRejectsStaleProp(t *testing.T) {
	sch := miniSchema(t)
	cfg := miniSD(t, sch)
	q := plan.Join(plan.Scan("orders", "o"), plan.Scan("lineitem", "l"),
		plan.Inner, []string{"o.o_orderkey"}, []string{"l.l_orderkey"})
	rw := mustRewrite(t, q, sch, cfg)

	jn := findNode(rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.JoinNode); return ok })
	rw.Props[jn].SetHashCols([]string{"o.o_custkey"}) // claim a placement the join does not have
	expectRule(t, rw, check.RuleStaleProp)
}

func TestVerifyRejectsStaleParts(t *testing.T) {
	sch := miniSchema(t)
	cfg := miniSD(t, sch)
	rw := mustRewrite(t, plan.ProjectCols(plan.Scan("orders", "o"), "o.o_orderkey"), sch, cfg)
	rw.Props[rw.Root].Parts++
	expectRule(t, rw, check.RuleStaleProp)
}

// ---- mutation 8: flipped OneCopy → malformed ----

func TestVerifyRejectsFlippedOneCopy(t *testing.T) {
	sch := miniSchema(t)
	cfg := miniSD(t, sch)
	q := plan.Join(plan.Scan("customer", "c"), plan.Scan("lineitem", "l"),
		plan.Inner, []string{"c.c_custkey"}, []string{"l.l_partkey"})
	rw := mustRewrite(t, q, sch, cfg)

	rep := findNode(rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.RepartitionNode); return ok }).(*plan.RepartitionNode)
	rep.OneCopy = !rep.OneCopy // read one copy of a non-replicated input: drops rows
	expectRule(t, rw, check.RuleMalformed)
}

// ---- error plumbing ----

func TestViolationErrorRendering(t *testing.T) {
	sch := miniSchema(t)
	cfg := partition.NewConfig(4)
	cfg.SetPref("orders", "customer", []string{"o_custkey"}, []string{"c_custkey"})
	cfg.SetPref("customer", "orders", []string{"c_custkey"}, []string{"o_custkey"})
	err := check.VerifyDesign(sch, cfg)
	if err == nil {
		t.Fatal("want error")
	}
	msg := err.Error()
	if !strings.Contains(msg, string(check.RuleDesignCycle)) || !strings.Contains(msg, "violation") {
		t.Fatalf("unhelpful error rendering: %q", msg)
	}
}

func TestVerifyNilPlan(t *testing.T) {
	if err := check.Verify(nil); err == nil {
		t.Fatal("Verify(nil) must fail")
	}
	if err := check.Verify(&plan.Rewritten{}); err == nil {
		t.Fatal("Verify of empty Rewritten must fail")
	}
}
