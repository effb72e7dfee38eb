package plan

import (
	"slices"
	"strings"
	"testing"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/value"
)

func testSchema() *catalog.Schema {
	s := catalog.NewSchema("t")
	s.MustAddTable(catalog.MustTable("customer",
		[]catalog.Column{{Name: "custkey", Kind: value.Int}, {Name: "name", Kind: value.Str}}, "custkey"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "custkey", Kind: value.Int}, {Name: "total", Kind: value.Money}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}}, "linekey"))
	s.MustAddTable(catalog.MustTable("nation",
		[]catalog.Column{{Name: "nationkey", Kind: value.Int}, {Name: "regionkey", Kind: value.Int}}, "nationkey"))
	return s
}

// prefChainCfg seeds at lineitem HASH(orderkey): orders is then
// hash-equivalent (provably duplicate-free); customer is genuinely
// PREF-partitioned with duplicates.
func prefChainCfg(n int) *partition.Config {
	cfg := partition.NewConfig(n)
	cfg.SetHash("lineitem", "orderkey")
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	cfg.SetReplicated("nation")
	return cfg
}

// scatteredCfg seeds at lineitem HASH(linekey): orderkeys scatter, so
// orders (and customer) carry real PREF duplicates.
func scatteredCfg(n int) *partition.Config {
	cfg := partition.NewConfig(n)
	cfg.SetHash("lineitem", "linekey")
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	cfg.SetReplicated("nation")
	return cfg
}

func countNodes(n Node, pred func(Node) bool) int {
	c := 0
	if pred(n) {
		c++
	}
	for _, ch := range n.Children() {
		c += countNodes(ch, pred)
	}
	return c
}

func isRepart(n Node) bool { _, ok := n.(*RepartitionNode); return ok }
func isDistinct(n Node) bool {
	_, ok := n.(*DistinctPrefNode)
	return ok
}

func TestScanProps(t *testing.T) {
	s := testSchema()
	cfg := prefChainCfg(4)

	rw, err := Rewrite(Scan("lineitem", "l"), s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := scanProp(t, rw)
	if p.Method() != "HASH" || !slices.Equal(p.HashCols(), []string{"l.orderkey"}) {
		t.Fatalf("lineitem scan prop = %v", p)
	}
	if p.Dup() {
		t.Fatal("hash scan must be dup-free")
	}

	// orders is PREF but hash-equivalent (seed hashes the predicate
	// column): the scan is recognized as HASH on o.orderkey, dup-free.
	rw, err = Rewrite(Scan("orders", "o"), s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p = scanProp(t, rw)
	if p.Method() != "HASH" || !slices.Equal(p.HashCols(), []string{"o.orderkey"}) || p.Dup() {
		t.Fatalf("hash-equivalent orders scan prop = %v", p)
	}
	// The scan itself exposes the hidden index columns; the finalized
	// root projects them away.
	scanNode := findNodes(rw.Root, func(n Node) bool { _, ok := n.(*ScanNode); return ok })[0]
	sch := rw.Schema(scanNode)
	if sch.Index("o.__dup") < 0 || sch.Index("o.__hasref") < 0 {
		t.Fatalf("pref scan must expose index columns, got %v", sch.Names())
	}
	if root := rw.Schema(rw.Root); root.Index("o.__dup") >= 0 {
		t.Fatalf("finalized root must hide index columns, got %v", root.Names())
	}

	// customer is genuinely PREF-partitioned: dup columns live.
	rw, err = Rewrite(Scan("customer", "c"), s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p = scanProp(t, rw)
	if p.Method() != "PREF" || !p.Dup() {
		t.Fatalf("customer scan prop = %v", p)
	}
	// …and the finalized root is duplicate-free.
	if rw.RootProp().Dup() {
		t.Fatal("finalized root must be dup-free")
	}

	// Under the scattered seed, orders is not hash-equivalent.
	rw, err = Rewrite(Scan("orders", "o2"), s, scatteredCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p = scanProp(t, rw)
	if p.Method() != "PREF" || !p.Dup() {
		t.Fatalf("scattered orders scan prop = %v", p)
	}

	rw, err = Rewrite(Scan("nation", "n"), s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rw.RootProp().Repl {
		t.Fatal("nation scan must be replicated")
	}
}

// scanProp returns the properties of the (single) scan in a plan.
func scanProp(t *testing.T, rw *Rewritten) *Prop {
	t.Helper()
	scans := findNodes(rw.Root, func(n Node) bool { _, ok := n.(*ScanNode); return ok })
	if len(scans) != 1 {
		t.Fatalf("want 1 scan, got %d", len(scans))
	}
	return rw.Props[scans[0]]
}

func TestCase2JoinNoExchange(t *testing.T) {
	s := testSchema()
	j := Join(Scan("lineitem", "l"), Scan("orders", "o"),
		Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
	rw, err := Rewrite(j, s, prefChainCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw.Root, isRepart) != 0 {
		t.Fatalf("case 2 join must not repartition:\n%s", Format(rw.Root))
	}
	// Case 2: Dup(o) = 0 even though the orders input has duplicates.
	if rw.RootProp().Dup() {
		t.Fatalf("case 2 join output must be dup-free, prop %v", rw.RootProp())
	}
}

func TestCase3JoinKeepsReferencedDups(t *testing.T) {
	s := testSchema()
	// Under the scattered seed orders has real duplicates; the o⋈c join
	// output (case 3, referenced input = orders) inherits them.
	j := Join(Scan("orders", "o"), Scan("customer", "c"),
		Inner, []string{"o.custkey"}, []string{"c.custkey"})
	rw, err := Rewrite(j, s, scatteredCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw.Root, isRepart) != 0 {
		t.Fatalf("case 3 join must not repartition:\n%s", Format(rw.Root))
	}
	joins := findNodes(rw.Root, func(n Node) bool { _, ok := n.(*JoinNode); return ok })
	p := rw.Props[joins[0]]
	if !p.Dup() || len(p.DupCols()) != 1 || p.DupCols()[0] != "o.__dup" {
		t.Fatalf("case 3 dup = %v, want [o.__dup]", p.DupCols())
	}
	// The finalized root eliminates them.
	if rw.RootProp().Dup() {
		t.Fatal("finalized root must be dup-free")
	}

	// Under the hash-equivalent chain the referenced input is provably
	// duplicate-free, so the join output is too.
	j2 := Join(Scan("orders", "o2"), Scan("customer", "c2"),
		Inner, []string{"o2.custkey"}, []string{"c2.custkey"})
	rw2, err := Rewrite(j2, s, prefChainCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw2.Root, isRepart) != 0 {
		t.Fatalf("join must stay local:\n%s", Format(rw2.Root))
	}
	if rw2.RootProp().Dup() {
		t.Fatalf("hash-equivalent referenced input ⇒ dup-free output, got %v", rw2.RootProp())
	}
}

func TestCase1HashAligned(t *testing.T) {
	s := testSchema()
	cfg := partition.NewConfig(4)
	cfg.SetHash("orders", "custkey")
	cfg.SetHash("customer", "custkey")
	cfg.SetHash("lineitem", "orderkey")
	cfg.SetReplicated("nation")
	j := Join(Scan("orders", "o"), Scan("customer", "c"),
		Inner, []string{"o.custkey"}, []string{"c.custkey"})
	rw, err := Rewrite(j, s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw.Root, isRepart) != 0 {
		t.Fatalf("case 1 join must not repartition:\n%s", Format(rw.Root))
	}
	if rw.RootProp().Method() != "HASH" {
		t.Fatalf("case 1 output should stay hash, got %v", rw.RootProp())
	}
}

func TestMisalignedJoinRepartitionsOnlyOneSide(t *testing.T) {
	s := testSchema()
	cfg := partition.NewConfig(4)
	cfg.SetHash("orders", "custkey") // aligned with the join
	cfg.SetHash("customer", "name")  // misaligned
	cfg.SetHash("lineitem", "linekey")
	cfg.SetReplicated("nation")
	j := Join(Scan("orders", "o"), Scan("customer", "c"),
		Inner, []string{"o.custkey"}, []string{"c.custkey"})
	rw, err := Rewrite(j, s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := countNodes(rw.Root, isRepart); got != 1 {
		t.Fatalf("want exactly 1 repartition (customer side), got %d:\n%s", got, Format(rw.Root))
	}
}

func TestFigure3RewriteShape(t *testing.T) {
	// The paper's Figure 3: join is local (case 3), aggregation input is
	// PREF + dup, so exactly one repartition (on the group-by column). It
	// ships partial states: the duplicates are eliminated locally on the
	// dup index below the PartialAgg, so the exchange has nothing left to
	// dedup. The scattered seed is used so the orders input genuinely
	// carries duplicates, as in the figure.
	s := testSchema()
	j := Join(Scan("orders", "o"), Scan("customer", "c"),
		Inner, []string{"o.custkey"}, []string{"c.custkey"})
	agg := Aggregate(j, []string{"c.name"}, Sum(Col("o.total"), "revenue"))
	rw, err := Rewrite(agg, s, scatteredCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps := findNodes(rw.Root, isRepart)
	if len(reps) != 1 {
		t.Fatalf("want 1 repartition, got %d:\n%s", len(reps), Format(rw.Root))
	}
	rep := reps[0].(*RepartitionNode)
	if !slices.Equal(rep.Cols, []string{"c.name"}) {
		t.Fatalf("repartition cols = %v, want [c.name]", rep.Cols)
	}
	if len(rep.DupCols) != 0 {
		t.Fatalf("the repartition ships dup-free partial states, yet dedups on %v", rep.DupCols)
	}
	fin, ok := rw.Root.(*FinalAggNode)
	if !ok || fin.Child != Node(rep) {
		t.Fatalf("want FinalAgg directly over the repartition:\n%s", Format(rw.Root))
	}
	partial, ok := rep.Child.(*PartialAggNode)
	if !ok || !slices.Equal(partial.GroupBy, []string{"c.name"}) {
		t.Fatalf("the repartition must ship partial states grouped by [c.name]:\n%s", Format(rw.Root))
	}
	if d, ok := partial.Child.(*DistinctPrefNode); !ok || len(d.DupCols) == 0 {
		t.Fatalf("PREF duplicates must be eliminated locally below the PartialAgg:\n%s", Format(rw.Root))
	}
	if !slices.Equal(rw.RootProp().HashCols(), []string{"c.name"}) || rw.RootProp().Dup() {
		t.Fatalf("aggregate output must be dup-free and hashed on the group-by, got %v", rw.RootProp())
	}
}

func findNodes(n Node, pred func(Node) bool) []Node {
	var out []Node
	if pred(n) {
		out = append(out, n)
	}
	for _, c := range n.Children() {
		out = append(out, findNodes(c, pred)...)
	}
	return out
}

// TestRewriteLeavesInputUntouched rewrites one logical tree under two designs.
// The first prunes its point filter to one partition; the second must not
// inherit that, and must equal the plan made from a fresh build.
func TestRewriteLeavesInputUntouched(t *testing.T) {
	s := testSchema()
	build := func() Node {
		o := Filter(Scan("orders", "o"), Eq(Col("o.orderkey"), Lit(7)))
		return Join(o, Scan("lineitem", "l"), Inner, []string{"o.orderkey"}, []string{"l.orderkey"})
	}
	q := build()
	first, err := Rewrite(q, s, pkHashedCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.Explain(), "prune→") {
		t.Fatalf("fixture drift: the point filter does not prune under the hash design:\n%s", first.Explain())
	}
	second, err := Rewrite(q, s, scatteredCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Rewrite(build(), s, scatteredCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := second.Explain(), fresh.Explain(); got != want {
		t.Errorf("second rewrite of a reused tree:\n%swant (fresh build):\n%s", got, want)
	}
	if got, want := Format(q), Format(build()); got != want {
		t.Errorf("the rewrite changed its input:\n%swant\n%s", got, want)
	}
}

func TestHasRefSemiJoinRewrite(t *testing.T) {
	s := testSchema()
	j := Join(Scan("customer", "c"), Scan("orders", "o"),
		Semi, []string{"c.custkey"}, []string{"o.custkey"})
	rw, err := Rewrite(j, s, prefChainCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := Format(rw.Root)
	if !strings.Contains(out, "c.__hasref=1") {
		t.Fatalf("semi join should become a hasref filter:\n%s", out)
	}
	if strings.Contains(out, "Join") {
		t.Fatalf("no join should remain:\n%s", out)
	}
	// Anti variant.
	j2 := Join(Scan("customer", "c2"), Scan("orders", "o2"),
		Anti, []string{"c2.custkey"}, []string{"o2.custkey"})
	rw2, err := Rewrite(j2, s, prefChainCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Format(rw2.Root), "c2.__hasref=0") {
		t.Fatalf("anti join rewrite wrong:\n%s", Format(rw2.Root))
	}
}

func TestHasRefRewriteGuards(t *testing.T) {
	s := testSchema()
	// Filtered right side: shortcut must not fire.
	right := Filter(Scan("orders", "o"), Gt(Col("o.total"), Lit(5)))
	j := Join(Scan("customer", "c"), right, Semi, []string{"c.custkey"}, []string{"o.custkey"})
	rw, err := Rewrite(j, s, prefChainCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rw.Root.(*FilterNode); ok {
		if strings.Contains(rw.Root.(*FilterNode).Pred.String(), "__hasref") {
			t.Fatal("hasRef shortcut must not fire with a filtered right side")
		}
	}
	// Wrong predicate: no shortcut.
	j2 := Join(Scan("customer", "c2"), Scan("orders", "o2"),
		Semi, []string{"c2.name"}, []string{"o2.custkey"})
	rw2, err := Rewrite(j2, s, prefChainCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := rw2.Root.(*FilterNode); ok && strings.Contains(f.Pred.String(), "__hasref") {
		t.Fatal("hasRef shortcut must not fire on a non-partitioning predicate")
	}
	// Disabled by option.
	j3 := Join(Scan("customer", "c3"), Scan("orders", "o3"),
		Semi, []string{"c3.custkey"}, []string{"o3.custkey"})
	rw3, err := Rewrite(j3, s, prefChainCfg(4), Options{DisableHasRefOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := rw3.Root.(*FilterNode); ok && strings.Contains(f.Pred.String(), "__hasref") {
		t.Fatal("hasRef shortcut must respect DisableHasRefOpt")
	}
}

func TestProjectionInsertsDistinct(t *testing.T) {
	s := testSchema()
	p := ProjectCols(Scan("customer", "c"), "c.custkey")
	rw, err := Rewrite(p, s, prefChainCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw.Root, isDistinct) != 1 {
		t.Fatalf("projection over dup input needs a DistinctPref:\n%s", Format(rw.Root))
	}
	if rw.RootProp().Dup() {
		t.Fatal("projection output must be dup-free")
	}
	// Over a hash table: no distinct.
	p2 := ProjectCols(Scan("lineitem", "l"), "l.linekey")
	rw2, err := Rewrite(p2, s, prefChainCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw2.Root, isDistinct) != 0 {
		t.Fatal("hash input needs no distinct")
	}
}

func TestDisableDupIndexUsesValueDistinct(t *testing.T) {
	s := testSchema()
	p := ProjectCols(Scan("customer", "c"), "c.custkey")
	rw, err := Rewrite(p, s, prefChainCfg(4), Options{DisableDupIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	byValue := countNodes(rw.Root, func(n Node) bool { _, ok := n.(*DistinctByValueNode); return ok })
	if byValue != 1 || countNodes(rw.Root, isDistinct) != 0 {
		t.Fatalf("disabled dup index should use value distinct:\n%s", Format(rw.Root))
	}
}

func TestAggregateLocalOnAlignedHash(t *testing.T) {
	s := testSchema()
	cfg := partition.NewConfig(4)
	cfg.SetHash("orders", "custkey")
	cfg.SetHash("customer", "custkey")
	cfg.SetHash("lineitem", "linekey")
	cfg.SetReplicated("nation")
	agg := Aggregate(Scan("orders", "o"), []string{"o.custkey"}, Sum(Col("o.total"), "s"))
	rw, err := Rewrite(agg, s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw.Root, isRepart) != 0 {
		t.Fatalf("aligned group-by must be local:\n%s", Format(rw.Root))
	}
	// Group-by with extra trailing columns still aligned.
	agg2 := Aggregate(Scan("orders", "o2"), []string{"o2.custkey", "o2.orderkey"}, Count("n"))
	rw2, err := Rewrite(agg2, s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw2.Root, isRepart) != 0 {
		t.Fatal("prefix-aligned group-by must be local")
	}
	// Misaligned: repartition.
	agg3 := Aggregate(Scan("orders", "o3"), []string{"o3.orderkey"}, Count("n"))
	rw3, err := Rewrite(agg3, s, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countNodes(rw3.Root, isRepart) != 1 {
		t.Fatal("misaligned group-by must repartition")
	}
}

func TestRewriteErrors(t *testing.T) {
	s := testSchema()
	cfg := prefChainCfg(2)
	cases := []Node{
		Scan("nope", ""),
		Filter(Scan("orders", "o"), Gt(Col("o.missing"), Lit(1))),
		Join(Scan("orders", "o"), Scan("customer", "c"), Inner, []string{"o.custkey"}, []string{"c.custkey", "c.name"}),
		Aggregate(Scan("orders", "o"), []string{"o.missing"}, Count("n")),
		Join(Scan("orders", "o"), Scan("customer", "c"), Inner, []string{"o.nope"}, []string{"c.custkey"}),
	}
	for i, n := range cases {
		if _, err := Rewrite(n, s, cfg, Options{}); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestColPairsEqual(t *testing.T) {
	if !colPairsEqual([]string{"a", "b"}, []string{"x", "y"}, []string{"b", "a"}, []string{"y", "x"}) {
		t.Fatal("conjunct order must not matter")
	}
	if colPairsEqual([]string{"a", "b"}, []string{"x", "y"}, []string{"a", "b"}, []string{"y", "x"}) {
		t.Fatal("pairings differ")
	}
	if colPairsEqual([]string{"a"}, []string{"x"}, []string{"a", "b"}, []string{"x", "y"}) {
		t.Fatal("length mismatch")
	}
}

func TestFormatAndStrings(t *testing.T) {
	s := testSchema()
	j := Join(Scan("orders", "o"), Scan("customer", "c"),
		Inner, []string{"o.custkey"}, []string{"c.custkey"})
	agg := Aggregate(j, []string{"c.name"}, Sum(Col("o.total"), "rev"))
	rw, err := Rewrite(agg, s, prefChainCfg(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := Format(rw.Root)
	for _, want := range []string{"FinalAgg", "Repartition", "PartialAgg", "INNERJoin", "Scan(orders AS o)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}
