package design

import (
	"math"
	"testing"

	"pref/internal/catalog"
	"pref/internal/graph"
	"pref/internal/partition"
	"pref/internal/table"
	"pref/internal/value"
)

// miniTPCH builds a scaled-down TPC-H-like database matching the
// simplified schema of Figure 1/4: NATION(25), SUPPLIER(100),
// CUSTOMER(1500), ORDERS(15000), LINEITEM(60000), with uniform fks.
func miniTPCH(t testing.TB) *table.Database {
	t.Helper()
	s := catalog.NewSchema("mini-tpch")
	s.MustAddTable(catalog.MustTable("nation",
		[]catalog.Column{{Name: "nationkey", Kind: value.Int}}, "nationkey"))
	s.MustAddTable(catalog.MustTable("supplier",
		[]catalog.Column{{Name: "suppkey", Kind: value.Int}, {Name: "nationkey", Kind: value.Int}}, "suppkey"))
	s.MustAddTable(catalog.MustTable("customer",
		[]catalog.Column{{Name: "custkey", Kind: value.Int}, {Name: "nationkey", Kind: value.Int}}, "custkey"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "custkey", Kind: value.Int}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}, {Name: "suppkey", Kind: value.Int}}, "linekey"))
	s.MustAddFK(catalog.ForeignKey{Name: "fk_s_n", FromTable: "supplier", FromCols: []string{"nationkey"}, ToTable: "nation", ToCols: []string{"nationkey"}, ToIsUnique: true})
	s.MustAddFK(catalog.ForeignKey{Name: "fk_c_n", FromTable: "customer", FromCols: []string{"nationkey"}, ToTable: "nation", ToCols: []string{"nationkey"}, ToIsUnique: true})
	s.MustAddFK(catalog.ForeignKey{Name: "fk_o_c", FromTable: "orders", FromCols: []string{"custkey"}, ToTable: "customer", ToCols: []string{"custkey"}, ToIsUnique: true})
	s.MustAddFK(catalog.ForeignKey{Name: "fk_l_o", FromTable: "lineitem", FromCols: []string{"orderkey"}, ToTable: "orders", ToCols: []string{"orderkey"}, ToIsUnique: true})
	s.MustAddFK(catalog.ForeignKey{Name: "fk_l_s", FromTable: "lineitem", FromCols: []string{"suppkey"}, ToTable: "supplier", ToCols: []string{"suppkey"}, ToIsUnique: true})

	db := table.NewDatabase(s)
	for i := int64(0); i < 25; i++ {
		db.Tables["nation"].MustAppend(value.Tuple{i})
	}
	for i := int64(0); i < 100; i++ {
		db.Tables["supplier"].MustAppend(value.Tuple{i, i % 25})
	}
	for i := int64(0); i < 1500; i++ {
		db.Tables["customer"].MustAppend(value.Tuple{i, i % 25})
	}
	for i := int64(0); i < 15000; i++ {
		// Salted hash: deriving custkey from the unsalted placement hash
		// would correlate a customer's orders into one partition
		// (10 | 1500), which no real data distribution does.
		db.Tables["orders"].MustAppend(value.Tuple{i, int64(value.MakeKey1(i*2654435761+97).Hash() % 1500)})
	}
	for i := int64(0); i < 60000; i++ {
		// suppkey decorrelated from orderkey by hashing — with a modular
		// assignment all lines of an order would share one supplier
		// (15000 ≡ 0 mod 100), a correlation dbgen data does not have.
		db.Tables["lineitem"].MustAppend(value.Tuple{
			i, i % 15000, int64(value.MakeKey1(i+7).Hash() % 100)})
	}
	return db
}

func TestSchemaGraphWeights(t *testing.T) {
	db := miniTPCH(t)
	g := SchemaGraph(db.Schema, SizesOf(db))
	if g.NumNodes() != 5 || g.NumEdges() != 5 {
		t.Fatalf("graph = %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	// Weight = size of the smaller table.
	for _, e := range g.Edges() {
		switch e.ID() {
		case graph.Edge{A: "lineitem", B: "orders", ACols: []string{"orderkey"}, BCols: []string{"orderkey"}}.ID():
			if e.Weight != 15000 {
				t.Errorf("L-O weight = %d", e.Weight)
			}
		case graph.Edge{A: "customer", B: "orders", ACols: []string{"custkey"}, BCols: []string{"custkey"}}.ID():
			if e.Weight != 1500 {
				t.Errorf("C-O weight = %d", e.Weight)
			}
		}
	}
}

// Figure 4's schema: the enumeration of Listing 1 finds the minimum-
// redundancy seed. With NATION present, the miniature TPC-H hierarchy is
// almost entirely coverable by factor-1 (unique-key) chains: seeding at
// NATION makes CUSTOMER/ORDERS/LINEITEM redundancy-free, leaving only
// SUPPLIER (referenced from LINEITEM's non-unique suppkey) duplicated.
// (Figure 4 itself shows a LINEITEM-seeded configuration but calls it "one
// potential" configuration; the paper's measured SD designs run without
// small tables and with PART/PARTSUPP, exercised in the tpch package.)
func TestPaperFigure4SchemaDriven(t *testing.T) {
	db := miniTPCH(t)
	d, err := SchemaDriven(db, SDOptions{Parts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Seeds) != 1 || d.Seeds[0] != "nation" {
		t.Fatalf("seeds = %v, want [nation] (zero-redundancy hierarchy root)", d.Seeds)
	}
	seed := d.Config.Scheme("nation")
	if seed.Method != partition.Hash || len(seed.Cols) != 1 || seed.Cols[0] != "nationkey" {
		t.Fatalf("seed scheme = %v, want HASH(nationkey)", seed)
	}
	// The PREF chain follows the MAST away from the seed.
	for tbl, ref := range map[string]string{"customer": "nation", "orders": "customer", "lineitem": "orders", "supplier": "lineitem"} {
		sc := d.Config.Scheme(tbl)
		if sc.Method != partition.Pref || sc.RefTable != ref {
			t.Errorf("%s scheme = %v, want PREF on %s", tbl, sc, ref)
		}
	}
	// Full locality: the MAST covers all but one weight-25 edge.
	wantDL := float64(15000+1500+100+25) / float64(15000+1500+100+25+25)
	if math.Abs(d.DL-wantDL) > 1e-9 {
		t.Fatalf("DL = %v, want %v", d.DL, wantDL)
	}
	// Estimated DR is small: only SUPPLIER (100 rows, ~×10) duplicates.
	if dr := d.Est.DR(); dr < 0 || dr > 0.05 {
		t.Fatalf("estimated DR = %v, want small positive", dr)
	}
	// Listing 1 self-consistency: no other single seed beats the choice.
	sizes := SizesOf(db)
	hp := NewHistProvider(db, 1, 0)
	for _, comp := range d.Graph.Components() {
		mast := d.Graph.Subgraph(comp).MaximumSpanningTree()
		for _, seedTbl := range mast.Nodes() {
			cfg, _, err := BuildPC(mast, []string{seedTbl}, db.Schema, 10)
			if err != nil {
				t.Fatal(err)
			}
			est, err := EstimateConfig(cfg, sizes, hp)
			if err != nil {
				t.Fatal(err)
			}
			if est.Total < d.Est.Total-1e-6 {
				t.Errorf("seed %s (est %v) beats chosen design (est %v)", seedTbl, est.Total, d.Est.Total)
			}
		}
	}
}

func TestSDEstimateMatchesActual(t *testing.T) {
	// On uniform data the Appendix A estimate should be close to the
	// actual redundancy produced by partitioning.
	db := miniTPCH(t)
	d, err := SchemaDriven(db, SDOptions{Parts: 10})
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := partition.Apply(db, d.Config)
	if err != nil {
		t.Fatal(err)
	}
	actual := pdb.DataRedundancy()
	estimated := d.Est.DR()
	if actual < 0 {
		t.Fatalf("actual DR = %v", actual)
	}
	relErr := math.Abs(estimated-actual) / (actual + 1)
	if relErr > 0.15 {
		t.Fatalf("estimate %.4f vs actual %.4f: relative error %.3f too big", estimated, actual, relErr)
	}
}

func TestSDHashSeedEdgeIsRedundancyFree(t *testing.T) {
	// The seed hashes on the L–O join key, so ORDERS must come out of
	// partitioning with (near) zero duplicates.
	db := miniTPCH(t)
	d, err := SchemaDriven(db, SDOptions{Parts: 10})
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := partition.Apply(db, d.Config)
	if err != nil {
		t.Fatal(err)
	}
	if dup := pdb.Tables["orders"].DuplicateRows(); dup != 0 {
		t.Fatalf("orders duplicates = %d, want 0 (seed hashed on orderkey)", dup)
	}
}

func TestSDNoRedundancyConstraint(t *testing.T) {
	db := miniTPCH(t)
	all := db.Schema.TableNames()
	d, err := SchemaDriven(db, SDOptions{Parts: 10, NoRedundancy: all})
	if err != nil {
		t.Fatal(err)
	}
	// The configuration must produce zero redundancy in reality.
	pdb, err := partition.Apply(db, d.Config)
	if err != nil {
		t.Fatal(err)
	}
	if dr := pdb.DataRedundancy(); dr > 1e-9 {
		t.Fatalf("actual DR = %v, want 0 under all-table constraint", dr)
	}
	// Locality must drop below 1 (edges were cut) but stay positive:
	// outgoing-fk chains (L→O→C, L→S, …) are still usable.
	if d.DL <= 0 || d.DL >= 1 {
		t.Fatalf("constrained DL = %v, want in (0,1)", d.DL)
	}
	if len(d.Seeds) < 2 {
		t.Fatalf("constrained design should need ≥ 2 seeds, got %v", d.Seeds)
	}
}

func TestSDPartialConstraint(t *testing.T) {
	db := miniTPCH(t)
	d, err := SchemaDriven(db, SDOptions{Parts: 10, NoRedundancy: []string{"lineitem", "orders"}})
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := partition.Apply(db, d.Config)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"lineitem", "orders"} {
		if dup := pdb.Tables[tbl].DuplicateRows(); dup != 0 {
			t.Fatalf("%s duplicates = %d, want 0", tbl, dup)
		}
	}
}

func TestSDRejectsBadOptions(t *testing.T) {
	db := miniTPCH(t)
	if _, err := SchemaDriven(db, SDOptions{Parts: 0}); err == nil {
		t.Fatal("Parts=0 must error")
	}
}

// TestSampleRateOutOfRange: both designers reject a sampling rate below 0
// or above 1 (or NaN) instead of designing from exact histograms, and
// accept 0 (exact), 1 and a rate in between; a rate of 0 designs what 1
// does.
func TestSampleRateOutOfRange(t *testing.T) {
	db := miniTPCH(t)
	for _, rate := range []float64{-0.5, 1.5, 7, math.NaN()} {
		if _, err := SchemaDriven(db, SDOptions{Parts: 4, SampleRate: rate}); err == nil {
			t.Errorf("SD with SampleRate %v: no error", rate)
		}
		if _, err := WorkloadDriven(db, figure5Workload(), WDOptions{Parts: 4, SampleRate: rate}); err == nil {
			t.Errorf("WD with SampleRate %v: no error", rate)
		}
	}
	var ests []float64
	for _, rate := range []float64{0, 1, 0.5} {
		d, err := SchemaDriven(db, SDOptions{Parts: 4, SampleRate: rate, SampleSeed: 1})
		if err != nil {
			t.Fatalf("SD with SampleRate %v: %v", rate, err)
		}
		ests = append(ests, d.Est.Total)
		if _, err := WorkloadDriven(db, figure5Workload(), WDOptions{Parts: 4, SampleRate: rate}); err != nil {
			t.Fatalf("WD with SampleRate %v: %v", rate, err)
		}
	}
	if ests[0] != ests[1] {
		t.Errorf("SampleRate 0 estimates %v, 1 estimates %v", ests[0], ests[1])
	}
}

func TestSDDisconnectedSchema(t *testing.T) {
	// Two unrelated tables: each becomes its own hash-partitioned seed.
	s := catalog.NewSchema("d")
	s.MustAddTable(catalog.MustTable("a", []catalog.Column{{Name: "k", Kind: value.Int}}, "k"))
	s.MustAddTable(catalog.MustTable("b", []catalog.Column{{Name: "k", Kind: value.Int}}, "k"))
	db := table.NewDatabase(s)
	for i := int64(0); i < 10; i++ {
		db.Tables["a"].MustAppend(value.Tuple{i})
		db.Tables["b"].MustAppend(value.Tuple{i})
	}
	d, err := SchemaDriven(db, SDOptions{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Seeds) != 2 {
		t.Fatalf("seeds = %v", d.Seeds)
	}
	if d.DL != 1 {
		t.Fatalf("edgeless graph DL = %v, want 1", d.DL)
	}
	for _, tbl := range []string{"a", "b"} {
		if sc := d.Config.Scheme(tbl); sc.Method != partition.Hash || sc.Cols[0] != "k" {
			t.Fatalf("%s scheme = %v, want HASH(k) via pk fallback", tbl, sc)
		}
	}
}

// ---- Workload-driven ----

func wdSizes(db *table.Database) Sizes { return SizesOf(db) }

// Figure 5, adapted: Q1 joins C⋈O⋈L plus C⋈N; Q2 joins O⋈L (contained in
// Q1's MAST — phase-1 merge); Q3 joins L⋈S and S⋈N; Q4 joins S⋈N
// (contained in Q3's MAST — phase-1 merge).
//
// Phase 2 then exercises the rejected-merge outcome the paper describes:
// the union of the two surviving groups closes the cycle C-N-S-L-O-C, so
// merging them would sacrifice data-locality and is rejected — they stay
// separate, duplicating the shared tables (lineitem, nation), exactly the
// WD trade-off of Section 4.3.
func figure5Workload() []Query {
	return []Query{
		{Name: "Q1", Joins: []QueryJoin{
			{TableA: "customer", ColsA: []string{"custkey"}, TableB: "orders", ColsB: []string{"custkey"}},
			{TableA: "orders", ColsA: []string{"orderkey"}, TableB: "lineitem", ColsB: []string{"orderkey"}},
			{TableA: "customer", ColsA: []string{"nationkey"}, TableB: "nation", ColsB: []string{"nationkey"}},
		}},
		{Name: "Q2", Joins: []QueryJoin{
			{TableA: "orders", ColsA: []string{"orderkey"}, TableB: "lineitem", ColsB: []string{"orderkey"}},
		}},
		{Name: "Q3", Joins: []QueryJoin{
			{TableA: "lineitem", ColsA: []string{"suppkey"}, TableB: "supplier", ColsB: []string{"suppkey"}},
			{TableA: "supplier", ColsA: []string{"nationkey"}, TableB: "nation", ColsB: []string{"nationkey"}},
		}},
		{Name: "Q4", Joins: []QueryJoin{
			{TableA: "supplier", ColsA: []string{"nationkey"}, TableB: "nation", ColsB: []string{"nationkey"}},
		}},
	}
}

func TestPaperFigure5Merge(t *testing.T) {
	db := miniTPCH(t)
	d, err := WorkloadDriven(db, figure5Workload(), WDOptions{Parts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if d.UnitsBeforeMerge != 4 {
		t.Fatalf("units before merge = %d", d.UnitsBeforeMerge)
	}
	// Phase 1 absorbs Q2 into Q1 (and Q4 into Q3, whose MAST contains it).
	if d.UnitsAfterPhase1 != 2 {
		t.Fatalf("units after phase 1 = %d, want 2", d.UnitsAfterPhase1)
	}
	// Q1/Q2 share a group; Q3/Q4 share a group; the two groups stay
	// separate because their union has the cycle C-N-S-L-O-C.
	g1, g2 := d.GroupsFor("Q1"), d.GroupsFor("Q2")
	if len(g1) != 1 || len(g2) != 1 || g1[0] != g2[0] {
		t.Fatalf("Q1/Q2 routing = %v/%v, want same group", g1, g2)
	}
	g3, g4 := d.GroupsFor("Q3"), d.GroupsFor("Q4")
	if len(g3) != 1 || len(g4) != 1 || g3[0] != g4[0] {
		t.Fatalf("Q3/Q4 routing = %v/%v, want same group", g3, g4)
	}
	if g1[0] == g3[0] {
		t.Fatal("cyclic union must keep the groups separate")
	}
	if len(d.Groups) != 2 {
		t.Fatalf("final groups = %d, want 2", len(d.Groups))
	}
	// Tables shared by both groups (lineitem, nation) are physically
	// duplicated in the final design — the Section 4.3 trade-off.
	shared := 0
	for _, tbl := range []string{"lineitem", "nation"} {
		in := 0
		for _, g := range d.Groups {
			if g.Tree.HasNode(tbl) {
				in++
			}
		}
		if in == 2 {
			shared++
		}
	}
	if shared != 2 {
		t.Fatalf("lineitem and nation should appear in both groups, got %d shared", shared)
	}
}

func TestWDPhase2CostBasedMerge(t *testing.T) {
	// Without the S-N edge in Q3, phase 1 cannot absorb Q4; phase 2 must
	// merge Q3+Q4 cost-based (shared supplier, acyclic, smaller estimate).
	db := miniTPCH(t)
	qs := []Query{
		{Name: "Q3", Joins: []QueryJoin{
			{TableA: "lineitem", ColsA: []string{"suppkey"}, TableB: "supplier", ColsB: []string{"suppkey"}},
		}},
		{Name: "Q4", Joins: []QueryJoin{
			{TableA: "supplier", ColsA: []string{"nationkey"}, TableB: "nation", ColsB: []string{"nationkey"}},
		}},
	}
	d, err := WorkloadDriven(db, qs, WDOptions{Parts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if d.UnitsAfterPhase1 != 2 {
		t.Fatalf("phase 1 should not merge disjoint-label queries, got %d units", d.UnitsAfterPhase1)
	}
	if len(d.Groups) != 1 {
		t.Fatalf("phase 2 should merge Q3+Q4 into one group, got %d", len(d.Groups))
	}
	g3, g4 := d.GroupsFor("Q3"), d.GroupsFor("Q4")
	if g3[0] != g4[0] {
		t.Fatal("Q3/Q4 must share the merged group")
	}
}

func TestWDPerQueryLocality(t *testing.T) {
	// Each query's own join graph must be fully contained in its group's
	// merged MAST — per-query data-locality is never sacrificed.
	db := miniTPCH(t)
	qs := figure5Workload()
	d, err := WorkloadDriven(db, qs, WDOptions{Parts: 10})
	if err != nil {
		t.Fatal(err)
	}
	sizes := wdSizes(db)
	for _, q := range qs {
		for _, gi := range d.GroupsFor(q.Name) {
			if !q.Graph(sizes).ContainedIn(d.Groups[gi].Tree) {
				t.Errorf("query %s graph not contained in its group tree", q.Name)
			}
		}
	}
}

func TestWDDisablePhase1Ablation(t *testing.T) {
	db := miniTPCH(t)
	d, err := WorkloadDriven(db, figure5Workload(), WDOptions{Parts: 10, DisablePhase1: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.UnitsAfterPhase1 != d.UnitsBeforeMerge {
		t.Fatal("phase 1 disabled must not reduce units")
	}
	// Phase 2 still merges contained units (containment ⊆ acyclic union
	// + size win), so the final design should match the default run.
	def, err := WorkloadDriven(db, figure5Workload(), WDOptions{Parts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Groups) != len(def.Groups) {
		t.Fatalf("ablated groups = %d, default = %d", len(d.Groups), len(def.Groups))
	}
}

func TestWDDedupEstimatedDR(t *testing.T) {
	// Two identical queries: the second group never materializes —
	// containment merge collapses them; estimated DR must equal the
	// single-query design's DR.
	db := miniTPCH(t)
	q := Query{Name: "QA", Joins: []QueryJoin{
		{TableA: "orders", ColsA: []string{"orderkey"}, TableB: "lineitem", ColsB: []string{"orderkey"}},
	}}
	q2 := q
	q2.Name = "QB"
	d, err := WorkloadDriven(db, []Query{q, q2}, WDOptions{Parts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Groups) != 1 {
		t.Fatalf("identical queries must share one group, got %d", len(d.Groups))
	}
	dr, err := d.EstimatedDR(wdSizes(db))
	if err != nil {
		t.Fatal(err)
	}
	if dr < 0 || dr > 1 {
		t.Fatalf("estimated DR = %v out of plausible range", dr)
	}
}

func TestWDSingleTableQuery(t *testing.T) {
	db := miniTPCH(t)
	d, err := WorkloadDriven(db, []Query{{Name: "scan", Tables: []string{"customer"}}}, WDOptions{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Groups) != 1 {
		t.Fatalf("groups = %d", len(d.Groups))
	}
	sc := d.Groups[0].PC.Config.Scheme("customer")
	if sc == nil || sc.Method != partition.Hash {
		t.Fatalf("single-table query scheme = %v, want HASH", sc)
	}
}

func TestWDMultiComponentQuery(t *testing.T) {
	// One query with two disconnected join components yields two units.
	db := miniTPCH(t)
	q := Query{Name: "Qx", Joins: []QueryJoin{
		{TableA: "orders", ColsA: []string{"orderkey"}, TableB: "lineitem", ColsB: []string{"orderkey"}},
		{TableA: "supplier", ColsA: []string{"nationkey"}, TableB: "nation", ColsB: []string{"nationkey"}},
	}}
	d, err := WorkloadDriven(db, []Query{q}, WDOptions{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.UnitsBeforeMerge != 2 {
		t.Fatalf("units = %d, want 2", d.UnitsBeforeMerge)
	}
	if len(d.GroupsFor("Qx")) != 2 {
		t.Fatalf("Qx groups = %v, want 2", d.GroupsFor("Qx"))
	}
}

func TestWDEmptyWorkload(t *testing.T) {
	db := miniTPCH(t)
	if _, err := WorkloadDriven(db, nil, WDOptions{Parts: 4}); err == nil {
		t.Fatal("empty workload must error")
	}
}

// ---- Estimation internals ----

func TestEstimateFullReplicationCap(t *testing.T) {
	// supplier referenced from lineitem's suppkey with frequency 600 per
	// supplier: expected copies ≈ n, so PREF supplier on lineitem ≈ full
	// replication but never more than n·|T|.
	db := miniTPCH(t)
	sizes := SizesOf(db)
	hp := NewHistProvider(db, 1, 0)
	cfg := partition.NewConfig(10)
	cfg.SetHash("lineitem", "linekey")
	cfg.SetPref("supplier", "lineitem", []string{"suppkey"}, []string{"suppkey"})
	est, err := EstimateConfig(cfg, sizes, hp)
	if err != nil {
		t.Fatal(err)
	}
	if est.PerTable["supplier"] > float64(100*10)+1e-6 {
		t.Fatalf("supplier estimate %v exceeds full replication", est.PerTable["supplier"])
	}
	if est.PerTable["supplier"] < 900 {
		t.Fatalf("supplier estimate %v, want ≈ full replication (1000)", est.PerTable["supplier"])
	}
}

func TestEstimateHashColocationRule(t *testing.T) {
	db := miniTPCH(t)
	sizes := SizesOf(db)
	hp := NewHistProvider(db, 1, 0)
	// lineitem hashed on orderkey ⇒ orders PREF via orderkey is free.
	cfg := partition.NewConfig(10)
	cfg.SetHash("lineitem", "orderkey")
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	est, err := EstimateConfig(cfg, sizes, hp)
	if err != nil {
		t.Fatal(err)
	}
	if est.PerTable["orders"] != float64(sizes["orders"]) {
		t.Fatalf("co-located orders estimate = %v, want %d", est.PerTable["orders"], sizes["orders"])
	}
	// Contrast: lineitem hashed on linekey ⇒ orderkeys scatter.
	cfg2 := partition.NewConfig(10)
	cfg2.SetHash("lineitem", "linekey")
	cfg2.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	est2, err := EstimateConfig(cfg2, sizes, hp)
	if err != nil {
		t.Fatal(err)
	}
	if est2.PerTable["orders"] <= float64(sizes["orders"]) {
		t.Fatalf("scattered orders estimate = %v, want > %d", est2.PerTable["orders"], sizes["orders"])
	}
}

func TestEstimateActualAgreementScattered(t *testing.T) {
	// Validate the histogram estimator itself (no co-location shortcut):
	// lineitem hashed on linekey, orders PREF on lineitem. Each order has
	// exactly 4 lineitems ⇒ estimate |orders^P| = |O|·E[4,n].
	db := miniTPCH(t)
	sizes := SizesOf(db)
	hp := NewHistProvider(db, 1, 0)
	cfg := partition.NewConfig(10)
	cfg.SetHash("lineitem", "linekey")
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetReplicated("customer")
	cfg.SetReplicated("nation")
	cfg.SetReplicated("supplier")
	est, err := EstimateConfig(cfg, sizes, hp)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	actual := float64(pdb.Tables["orders"].StoredRows())
	predicted := est.PerTable["orders"]
	if rel := math.Abs(predicted-actual) / actual; rel > 0.05 {
		t.Fatalf("orders: predicted %v actual %v (rel err %.3f)", predicted, actual, rel)
	}
}

func TestEstimateSampledClose(t *testing.T) {
	db := miniTPCH(t)
	sizes := SizesOf(db)
	exact, err := EstimateConfig(mustSD(t, db).Config, sizes, NewHistProvider(db, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := EstimateConfig(mustSD(t, db).Config, sizes, NewHistProvider(db, 0.2, 42))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(sampled.Total-exact.Total) / exact.Total; rel > 0.25 {
		t.Fatalf("sampled estimate off by %.3f (exact %v sampled %v)", rel, exact.Total, sampled.Total)
	}
}

func mustSD(t *testing.T, db *table.Database) *Design {
	t.Helper()
	d, err := SchemaDriven(db, SDOptions{Parts: 10})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCombinations(t *testing.T) {
	var got [][]string
	combinations([]string{"a", "b", "c"}, 2, func(s []string) {
		got = append(got, append([]string(nil), s...))
	})
	if len(got) != 3 {
		t.Fatalf("C(3,2) = %d sets", len(got))
	}
	var none [][]string
	combinations([]string{"a"}, 2, func(s []string) { none = append(none, s) })
	if none != nil {
		t.Fatal("k > n must yield nothing")
	}
}

func TestSchemeSignatureDeepEquality(t *testing.T) {
	cfgA := partition.NewConfig(4)
	cfgA.SetHash("lineitem", "orderkey")
	cfgA.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	cfgB := partition.NewConfig(4)
	cfgB.SetHash("lineitem", "linekey") // different seed scheme
	cfgB.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	sa, err := cfgA.SchemeSignature("orders")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := cfgB.SchemeSignature("orders")
	if err != nil {
		t.Fatal(err)
	}
	if sa == sb {
		t.Fatal("signatures must differ when the upstream chain differs")
	}
	sa2, _ := cfgA.SchemeSignature("orders")
	if sa != sa2 {
		t.Fatal("signature must be stable")
	}
}
