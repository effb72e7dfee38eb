package design_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"pref/internal/design"
	"pref/internal/graph"
	"pref/internal/tpcds"
	"pref/internal/tpch"
)

// TestSolveIsTheLiteralSearch: on TPC-H's MAST (five tables), for each of
// the 32 sets of no-redundancy tables, Solve returns the configuration a
// literal enumeration of all 31 seed sets picks: the smallest feasible k,
// then the most kept weight, then the smallest estimate, then the first
// set in combination order.
func TestSolveIsTheLiteralSearch(t *testing.T) {
	db := tpch.Generate(0.01, 42).DB.Without(tpch.SmallTables()...)
	sizes := design.SizesOf(db)
	mast := design.SchemaGraph(db.Schema, sizes).MaximumSpanningTree()
	nodes := mast.Nodes()
	if len(nodes) != 5 {
		t.Fatalf("TPC-H's MAST has %d tables, want 5: %v", len(nodes), nodes)
	}
	hp := design.NewHistProvider(db, 0, 0)
	var all []*design.PC // every seed set, k ascending, combination order within k
	for k := 1; k <= len(nodes); k++ {
		for _, seeds := range subsetsOfSize(nodes, k) {
			cfg, eco, err := design.BuildPC(mast, seeds, db.Schema, 4)
			if err != nil {
				t.Fatal(err)
			}
			est, err := design.EstimateConfig(cfg, sizes, hp)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, &design.PC{Config: cfg, Est: est, Seeds: seeds, Eco: eco})
		}
	}
	if len(all) != 31 {
		t.Fatalf("%d seed sets, want 31", len(all))
	}
	ks := map[int]bool{}
	for mask := 0; mask < 1<<len(nodes); mask++ {
		var noRed []string
		for i, n := range nodes {
			if mask>>i&1 == 1 {
				noRed = append(noRed, n)
			}
		}
		var feasible []*design.PC
		for _, pc := range all {
			ok := true
			for _, tbl := range noRed {
				ok = ok && pc.Est.PerTable[tbl] <= float64(sizes[tbl])*(1+1e-6)
			}
			if ok {
				feasible = append(feasible, pc)
			}
		}
		if len(feasible) == 0 {
			t.Fatalf("no-redundancy %v: no seed set is feasible", noRed)
		}
		sort.SliceStable(feasible, func(i, j int) bool {
			a, b := feasible[i], feasible[j]
			if len(a.Seeds) != len(b.Seeds) {
				return len(a.Seeds) < len(b.Seeds)
			}
			if wa, wb := a.Eco.TotalWeight(), b.Eco.TotalWeight(); wa != wb {
				return wa > wb
			}
			return a.Est.Total < b.Est.Total
		})
		want := feasible[0]
		ks[len(want.Seeds)] = true
		got, err := design.Solve([][]*graph.Graph{{mast}}, db.Schema, sizes, hp, 4, noRed)
		if err != nil {
			t.Fatalf("no-redundancy %v: %v", noRed, err)
		}
		if !reflect.DeepEqual(got.Seeds, want.Seeds) || got.Config.String() != want.Config.String() ||
			math.Float64bits(got.Est.Total) != math.Float64bits(want.Est.Total) {
			t.Errorf("no-redundancy %v: Solve picked seeds %v (size %v), the enumeration %v (size %v)",
				noRed, got.Seeds, got.Est.Total, want.Seeds, want.Est.Total)
		}
	}
	if len(ks) < 2 {
		t.Errorf("every constraint set was met at k = %v; the check needs some that grow k", ks)
	}
}

// subsetsOfSize lists the k-subsets of items in combination order.
func subsetsOfSize(items []string, k int) [][]string {
	if k == 0 {
		return [][]string{nil}
	}
	var out [][]string
	for i := 0; i+k <= len(items); i++ {
		for _, rest := range subsetsOfSize(items[i+1:], k-1) {
			out = append(out, append([]string{items[i]}, rest...))
		}
	}
	return out
}

// TestSingleSeedKeepsTheWholeTree: with one seed, BuildPC co-partitions
// every edge of the tree, on every MAST SD and WD search on TPC-H and
// TPC-DS. Solve's ranking rests on it: without constraints every
// candidate keeps the same weight, so better orders by size alone.
func TestSingleSeedKeepsTheWholeTree(t *testing.T) {
	h := tpch.Generate(0.01, 42).DB.Without(tpch.SmallTables()...)
	ds := tpcds.Generate(0.5, 42).DB.Without(tpcds.SmallTables()...)
	for _, in := range []searchInput{
		{"tpch sd", h, schemaTrees(h)},
		{"tpch wd", h, workloadTrees(h, tpch.Workload(), tpch.SmallTables())},
		{"tpcds sd", ds, schemaTrees(ds)},
		{"tpcds wd", ds, workloadTrees(ds, tpcds.Workload(), tpcds.SmallTables())},
	} {
		for _, tree := range in.trees {
			for _, seed := range tree.Nodes() {
				_, eco, err := design.BuildPC(tree, []string{seed}, in.db.Schema, 4)
				if err != nil {
					t.Fatal(err)
				}
				if eco.NumEdges() != tree.NumEdges() || eco.TotalWeight() != tree.TotalWeight() {
					t.Errorf("%s: seed %s keeps %d edges of weight %d, the tree has %d of weight %d",
						in.name, seed, eco.NumEdges(), eco.TotalWeight(), tree.NumEdges(), tree.TotalWeight())
				}
			}
		}
	}
}
