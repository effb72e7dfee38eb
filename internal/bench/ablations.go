package bench

import (
	"context"
	"time"

	"pref/internal/bulkload"
	"pref/internal/design"
	"pref/internal/engine"
	"pref/internal/graph"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/stats"
	"pref/internal/table"
	"pref/internal/tpcds"
	"pref/internal/tpch"
)

// AblationSpanningTree contrasts the paper's maximum spanning tree against
// a minimum spanning tree and shows why discarding the lightest edges
// (Section 3.2) is the right locality objective: the kept co-partitioning
// weight — hence DL — collapses under the minimum tree.
func AblationSpanningTree(p Params) (*Report, error) {
	// Uses the full 8-table schema: its graph has cycles (through nation
	// and supplier), so maximum and minimum spanning trees differ.
	t := tpch.Generate(p.SF, p.Seed)
	reduced := t.DB
	sizes := design.SizesOf(reduced)
	hp := design.NewHistProvider(reduced, 1, p.Seed)
	gs := design.SchemaGraph(reduced.Schema, sizes)

	build := func(tree *graph.Graph) (float64, float64, error) {
		pc, err := design.Solve(design.OwnMASTs(tree), reduced.Schema, sizes, hp, p.Parts, nil)
		if err != nil {
			return 0, 0, err
		}
		pdb, err := partition.Apply(reduced, pc.Config)
		if err != nil {
			return 0, 0, err
		}
		return graph.DataLocality(gs, pc.Eco), pdb.DataRedundancy(), nil
	}

	mast := gs.MaximumSpanningTree()

	// Minimum spanning tree: invert the weights and re-extract.
	inv := graph.New()
	var maxW int64
	for _, e := range gs.Edges() {
		if e.Weight > maxW {
			maxW = e.Weight
		}
	}
	for _, e := range gs.Edges() {
		e.Weight = maxW + 1 - e.Weight
		inv.AddEdge(e)
	}
	minTree := inv.MaximumSpanningTree()
	// Restore true weights on the chosen edges.
	minRestored := graph.New()
	for _, e := range minTree.Edges() {
		e.Weight = maxW + 1 - e.Weight
		minRestored.AddEdge(e)
	}

	r := &Report{ID: "ablation-mast", Title: "Spanning-tree choice for co-partitioning",
		Columns: []string{"DL", "DR"}}
	dl, dr, err := build(mast)
	if err != nil {
		return nil, err
	}
	r.Add("maximum (paper)", dl, dr)
	dl, dr, err = build(minRestored)
	if err != nil {
		return nil, err
	}
	r.Add("minimum", dl, dr)
	r.Notes = append(r.Notes, "DL = fraction of join weight kept local; the MAST keeps the heavy joins")
	return r, nil
}

// AblationEstimator compares the paper's expected-copies estimator
// E_{f,n}[X] (Appendix A) against the naive min(n, f) upper bound on the
// skewed TPC-DS data: the naive bound wildly overestimates redundancy.
func AblationEstimator(p Params) (*Report, error) {
	t := tpcds.Generate(p.DSSF, p.Seed)
	reduced := t.DB.Without(tpcds.SmallTables()...)
	d, err := design.SchemaDriven(reduced, design.SDOptions{Parts: p.Parts})
	if err != nil {
		return nil, err
	}
	pdb, err := partition.Apply(reduced, d.Config)
	if err != nil {
		return nil, err
	}
	actual := pdb.DataRedundancy()

	literalEst, err := estimateWithCopies(d.Config, reduced, p.Parts, stats.ExpectedCopies)
	if err != nil {
		return nil, err
	}
	naiveEst, err := estimateWithCopies(d.Config, reduced, p.Parts,
		func(f, n int) float64 {
			if f < n {
				return float64(f)
			}
			return float64(n)
		})
	if err != nil {
		return nil, err
	}

	r := &Report{ID: "ablation-estimator", Title: "Redundancy estimator choice (TPC-DS, skewed)",
		Columns: []string{"estimated_DR", "actual_DR", "rel_error"}}
	r.Add("joint E[X] (ours)", d.Est.DR(), actual, relErr(d.Est.DR(), actual))
	r.Add("literal E[X] (paper)", literalEst, actual, relErr(literalEst, actual))
	r.Add("min(n,f) bound", naiveEst, actual, relErr(naiveEst, actual))
	r.Notes = append(r.Notes,
		"the literal Appendix A formula ignores the unmatched fraction per edge and over-multiplies on deep chains")
	return r, nil
}

// estimateWithCopies re-runs the Appendix A size estimation with a custom
// expected-copies function.
func estimateWithCopies(cfg *partition.Config, db *table.Database, parts int, copies func(f, n int) float64) (float64, error) {
	hp := design.NewHistProvider(db, 1, 0)
	sizes := design.SizesOf(db)
	var total float64
	var orig int
	for _, name := range cfg.Names() {
		ts := cfg.Schemes[name]
		orig += sizes[name]
		size := float64(sizes[name])
		if ts.Method == partition.Pref {
			chain, err := cfg.Chain(name)
			if err != nil {
				return 0, err
			}
			for _, tbl := range chain[:len(chain)-1] {
				child := cfg.Scheme(tbl)
				parent := cfg.Scheme(child.RefTable)
				if parent.Method == partition.Hash && subset(parent.Cols, child.Pred.ReferencedCols) {
					continue // co-located by construction
				}
				h, err := hp.Hist(child.RefTable, child.Pred.ReferencedCols)
				if err != nil {
					return 0, err
				}
				sum := 0.0
				for _, f := range h.Counts {
					sum += copies(f, parts)
				}
				factor := sum / float64(sizes[tbl])
				if factor < 1 {
					factor = 1
				}
				if factor > float64(parts) {
					factor = float64(parts)
				}
				size *= factor
			}
			if max := float64(sizes[name] * parts); size > max {
				size = max
			}
		}
		total += size
	}
	if orig == 0 {
		return 0, nil
	}
	return total/float64(orig) - 1, nil
}

// AblationPartitionIndex measures the Section 2.3 claim: bulk loading with
// the partition index versus resolving PREF targets by scanning the
// referenced table.
func AblationPartitionIndex(p Params) (*Report, error) {
	t := tpch.Generate(p.SF/2, p.Seed)
	cfg := PaperSDConfig(p.Parts)
	r := &Report{ID: "ablation-partindex", Title: "Bulk loading with vs without the partition index",
		Columns: []string{"wall_ms", "lookups", "rows_scanned"}}
	for _, mode := range []struct {
		name string
		use  bool
	}{{"with index (paper)", true}, {"without index", false}} {
		pdb, err := partition.NewStore(t.DB.Schema, cfg)
		if err != nil {
			return nil, err
		}
		loader := bulkload.NewLoader(pdb, cfg)
		loader.UsePartitionIndex = mode.use
		start := time.Now()
		if _, err := loader.LoadDatabase(subDB(t.DB, cfg)); err != nil {
			return nil, err
		}
		r.Add(mode.name, float64(time.Since(start).Milliseconds()),
			float64(loader.Lookups), float64(loader.ScannedRows))
	}
	return r, nil
}

// AblationWDPhase1 measures how much the containment merge (phase 1)
// shrinks the cost-based merge's search space and runtime on the TPC-DS
// workload.
func AblationWDPhase1(p Params) (*Report, error) {
	t := tpcds.Generate(p.DSSF, p.Seed)
	small := tpcds.SmallTables()
	reduced := t.DB.Without(small...)
	w := design.FilterWorkload(tpcds.Workload(), small)

	r := &Report{ID: "ablation-wdphase1", Title: "WD phase-1 containment merge on/off (TPC-DS)",
		Columns: []string{"wall_ms", "units_into_phase2", "final_groups"}}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"with phase 1 (paper)", false}, {"without phase 1", true}} {
		start := time.Now()
		wd, err := design.WorkloadDriven(reduced, w, design.WDOptions{
			Parts: p.Parts, DisablePhase1: mode.disable,
		})
		if err != nil {
			return nil, err
		}
		r.Add(mode.name, float64(time.Since(start).Milliseconds()),
			float64(wd.UnitsAfterPhase1), float64(len(wd.Groups)))
	}
	return r, nil
}

// AblationPruning measures the partition-pruning extension (the paper's
// conclusion names "partition pruning for PREF" as future work) on an
// OLTP-flavored point-query workload: orderkey lookups and their
// one-order join, under the paper's SD configuration where ORDERS is
// hash-equivalent PREF.
func AblationPruning(p Params) (*Report, error) {
	t := tpch.Generate(p.SF, p.Seed)
	cfg := PaperSDConfig(p.Parts)
	v := singleGroup("SD-paper", cfg)
	m, err := Materialize(v, t.DB)
	if err != nil {
		return nil, err
	}
	eopt := p.execOptions(t.DB.TotalRows())

	pointLookup := func(k int64) plan.Node {
		f := plan.Filter(plan.Scan("orders", "o"),
			plan.Eq(plan.Col("o.orderkey"), plan.Lit(k)))
		return plan.ProjectCols(f, "o.orderkey", "o.totalprice")
	}
	pointJoin := func(k int64) plan.Node {
		o := plan.Filter(plan.Scan("orders", "o"),
			plan.Eq(plan.Col("o.orderkey"), plan.Lit(k)))
		j := plan.Join(plan.Scan("lineitem", "l"), o, plan.Inner,
			[]string{"l.orderkey"}, []string{"o.orderkey"})
		return plan.Aggregate(j, nil, plan.Count("lines"))
	}

	r := &Report{ID: "ablation-pruning", Title: "Partition pruning on point queries (SD config)",
		Columns: []string{"rows_processed", "sim_ms"}}
	const lookups = 50
	shapes := []struct {
		name string
		mk   func(int64) plan.Node
	}{{"lookup", pointLookup}, {"order-join", pointJoin}}
	for _, shape := range shapes {
		for _, mode := range []struct {
			name string
			opt  plan.Options
		}{
			{shape.name + " pruned (extension)", plan.Options{}},
			{shape.name + " unpruned", plan.Options{DisablePruning: true}},
		} {
			var rows int64
			var sim time.Duration
			for k := int64(1); k <= lookups; k++ {
				rw, err := plan.Rewrite(shape.mk(k), t.DB.Schema, cfg, mode.opt)
				if err != nil {
					return nil, err
				}
				res, err := engine.ExecuteCtx(context.Background(), rw, m.PDBs[0], eopt)
				if err != nil {
					return nil, err
				}
				rows += res.Stats.RowsProcessed
				sim += engine.DefaultCostModel().Simulate(res.Stats)
			}
			r.Add(mode.name, float64(rows), float64(sim.Microseconds())/1000)
		}
	}
	r.Notes = append(r.Notes,
		"50 point queries per shape; pruning reads 1 partition of ORDERS instead of n "+
			"(the join shape still scans LINEITEM fully — its gain is bounded by the probe side)")
	return r, nil
}

// ExtOLTP measures the paper's OLTP outlook (Section 7): with
// no-redundancy constraints, the WD algorithm clusters each transaction's
// tuple group — a customer with all their orders and lineitems — onto a
// single node without duplicating anything. The metric is the fraction of
// such transactions resolvable on one node.
func ExtOLTP(p Params) (*Report, error) {
	t := tpch.Generate(p.SF, p.Seed)
	db := t.DB.Without("nation", "region", "supplier", "part", "partsupp")

	// The transactional access pattern: customer ⋈ orders ⋈ lineitem.
	txn := []design.Query{{Name: "txn", Joins: []design.QueryJoin{
		{TableA: "customer", ColsA: []string{"custkey"}, TableB: "orders", ColsB: []string{"custkey"}},
		{TableA: "orders", ColsA: []string{"orderkey"}, TableB: "lineitem", ColsB: []string{"orderkey"}},
	}}}

	wd, err := design.WorkloadDriven(db, txn, design.WDOptions{
		Parts: p.Parts, NoRedundancy: db.Schema.TableNames(),
	})
	if err != nil {
		return nil, err
	}
	oltpCfg := wd.Groups[0].PC.Config

	hashCfg := partition.NewConfig(p.Parts)
	for _, tbl := range db.Schema.Tables() {
		hashCfg.SetHash(tbl.Name, tbl.PK...)
	}

	r := &Report{ID: "ext-oltp", Title: "Single-node transaction locality (customer+orders+lineitems)",
		Columns: []string{"single_node_pct", "DR"}}
	for _, mode := range []struct {
		name string
		cfg  *partition.Config
	}{{"WD no-redundancy (outlook)", oltpCfg}, {"AllHashed on pk", hashCfg}} {
		pdb, err := partition.Apply(db, mode.cfg)
		if err != nil {
			return nil, err
		}
		pct := singleNodeTxnFraction(db, pdb)
		r.Add(mode.name, pct*100, pdb.DataRedundancy())
	}
	r.Notes = append(r.Notes,
		"a transaction = one customer with all their orders and lineitems; "+
			"single-node transactions need no distributed coordination")
	return r, nil
}

// singleNodeTxnFraction computes the share of customers whose row, orders,
// and lineitems all live in one partition.
func singleNodeTxnFraction(db *table.Database, pdb *table.PartitionedDatabase) float64 {
	// columns returns the stored columns of every partition of a table.
	columns := func(tbl string) [][][]int64 {
		pt := pdb.Tables[tbl]
		out := make([][][]int64, len(pt.Parts))
		for p, part := range pt.Parts {
			out[p] = part.Columns(pt.Meta.NumCols()).Cols
		}
		return out
	}
	// partition of each customer (first copy).
	custPart := map[int64]int{}
	ck := pdb.Tables["customer"].Meta.ColIndex("custkey")
	for p, cols := range columns("customer") {
		for _, cust := range cols[ck] {
			if _, seen := custPart[cust]; !seen {
				custPart[cust] = p
			}
		}
	}
	// orders per partition; orderkey → custkey.
	orderCust := map[int64]int64{}
	ok := pdb.Tables["orders"].Meta.ColIndex("orderkey")
	occ := pdb.Tables["orders"].Meta.ColIndex("custkey")
	violated := map[int64]bool{}
	for p, cols := range columns("orders") {
		for i, cust := range cols[occ] {
			orderCust[cols[ok][i]] = cust
			if cp, seen := custPart[cust]; seen && cp != p {
				violated[cust] = true
			}
		}
	}
	lk := pdb.Tables["lineitem"].Meta.ColIndex("orderkey")
	for p, cols := range columns("lineitem") {
		for _, order := range cols[lk] {
			cust, okk := orderCust[order]
			if !okk {
				continue
			}
			if cp, seen := custPart[cust]; seen && cp != p {
				violated[cust] = true
			}
		}
	}
	total := len(custPart)
	if total == 0 {
		return 0
	}
	return float64(total-len(violated)) / float64(total)
}

func relErr(est, actual float64) float64 {
	if actual <= 1e-12 {
		return abs(est - actual)
	}
	return abs(est-actual) / actual
}

func subset(a, b []string) bool {
	set := map[string]bool{}
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}
