package design_test

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"pref/internal/design"
	"pref/internal/graph"
	"pref/internal/partition"
	"pref/internal/stats"
	"pref/internal/table"
	"pref/internal/tpcds"
	"pref/internal/tpch"
)

// searchInputs are the databases the designers serve, small tables
// replicated as prefdesign does, with the trees each designer's search
// prices: SD's MASTs of the schema graph, and WD's MASTs of each query's
// join-graph components (TPC-H).
type searchInput struct {
	name  string
	db    *table.Database
	trees []*graph.Graph
}

func searchInputs() []searchInput {
	h := tpch.Generate(0.01, 42)
	ds := tpcds.Generate(0.5, 42)
	hdb := h.DB.Without(tpch.SmallTables()...)
	dsdb := ds.DB.Without(tpcds.SmallTables()...)
	return []searchInput{
		{"tpch sd", hdb, schemaTrees(hdb)},
		{"tpch wd", hdb, workloadTrees(hdb, tpch.Workload(), tpch.SmallTables())},
		{"tpcds sd", dsdb, schemaTrees(dsdb)},
	}
}

// workloadTrees are the MASTs of every component of every query's join
// graph, small tables filtered out as WD's callers do.
func workloadTrees(db *table.Database, wl []design.Query, small []string) []*graph.Graph {
	var trees []*graph.Graph
	for _, q := range design.FilterWorkload(wl, small) {
		qg := q.Graph(design.SizesOf(db))
		for _, comp := range qg.Components() {
			trees = append(trees, qg.Subgraph(comp).MaximumSpanningTrees(3)...)
		}
	}
	return trees
}

// schemaTrees are the MASTs of every component of db's schema graph.
func schemaTrees(db *table.Database) []*graph.Graph {
	gs := design.SchemaGraph(db.Schema, design.SizesOf(db))
	var trees []*graph.Graph
	for _, comp := range gs.Components() {
		trees = append(trees, gs.Subgraph(comp).MaximumSpanningTrees(3)...)
	}
	return trees
}

// TestPrefetchIsWhatTheSearchReads: Prefetch builds exactly the
// histograms an unconstrained Solve reads over the same trees — the
// search builds none on demand, and a search without Prefetch builds the
// same set.
func TestPrefetchIsWhatTheSearchReads(t *testing.T) {
	for _, in := range searchInputs() {
		sizes := design.SizesOf(in.db)
		search := func(hp *design.HistProvider) {
			for _, tree := range in.trees {
				if _, err := design.Solve([][]*graph.Graph{{tree}}, in.db.Schema, sizes, hp, 4, nil); err != nil {
					t.Fatalf("%s: %v", in.name, err)
				}
			}
		}
		pre := design.NewHistProvider(in.db, 0, 0)
		pre.Prefetch(in.trees)
		fetched := pre.HistKeys()
		search(pre)
		if after := pre.HistKeys(); !reflect.DeepEqual(after, fetched) {
			t.Errorf("%s: the search built histograms Prefetch did not:\nprefetched %v\nafter      %v", in.name, fetched, after)
		}
		cold := design.NewHistProvider(in.db, 0, 0)
		search(cold)
		if read := cold.HistKeys(); !reflect.DeepEqual(read, fetched) {
			t.Errorf("%s: Prefetch built %v, the search reads %v", in.name, fetched, read)
		}
	}
}

// literalFactor is the joint redundancy factor summed as the estimator
// summed it before pairs were memoized: E evaluated afresh for every
// shared key, in Histogram.Join's order.
func literalFactor(ref, ring *stats.Histogram, n int, refInflation float64) float64 {
	if ring.Rows == 0 {
		return 1
	}
	refInflation = math.Max(refInflation, 1)
	expected, matched := 0.0, 0.0
	ref.Join(ring, func(f, g int) {
		expected += stats.ExpectedCopiesReal(float64(f)*refInflation, n) * float64(g)
		matched += float64(g)
	})
	expected /= ring.Rate
	matched /= ring.Rate
	orphans := math.Max(float64(ring.Rows)-matched, 0)
	return math.Min(math.Max((expected+orphans)/float64(ring.Rows), 1), float64(n))
}

// TestEstimateMemoBitIdentical: the pair memo changes no bit of an
// estimate. Every one- and two-seed configuration of the designers' trees
// is estimated concurrently through one prefetched provider, and again,
// one at a time, through a fresh provider each; and every memoized pair's
// factor equals the literal per-key sum at several partition counts and
// chain inflations.
func TestEstimateMemoBitIdentical(t *testing.T) {
	for _, in := range searchInputs() {
		sizes := design.SizesOf(in.db)
		var cfgs []*partition.Config
		for _, tree := range in.trees {
			nodes := tree.Nodes()
			for i, a := range nodes {
				for _, seeds := range [][]string{{a}, nodes[i:min(i+2, len(nodes))]} {
					cfg, _, err := design.BuildPC(tree, seeds, in.db.Schema, 4)
					if err != nil {
						t.Fatal(err)
					}
					cfgs = append(cfgs, cfg)
				}
			}
		}
		shared := design.NewHistProvider(in.db, 0, 0)
		shared.Prefetch(in.trees)
		got := make([]*design.Estimate, len(cfgs))
		errs := make([]error, len(cfgs))
		var wg sync.WaitGroup
		for i, cfg := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = design.EstimateConfig(cfg, sizes, shared)
			}()
		}
		wg.Wait()
		for i, cfg := range cfgs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			want, err := design.EstimateConfig(cfg, sizes, design.NewHistProvider(in.db, 0, 0))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := bits(got[i]), bits(want); g != w {
				t.Errorf("%s config %d:\nmemo  %s\nfresh %s", in.name, i, g, w)
			}
		}
		pairs := shared.MatchedPairs()
		if len(pairs) == 0 {
			t.Fatalf("%s: no pair was matched", in.name)
		}
		for pair, m := range pairs {
			for _, n := range []int{1, 4, 10} {
				for _, infl := range []float64{1, 1.37, 4.2} {
					got := design.JointRedundancyFactor(m, pair[1], n, infl)
					want := literalFactor(pair[0], pair[1], n, infl)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s: factor %v, literal %v (n=%d, inflation %v)", in.name, got, want, n, infl)
					}
				}
			}
		}
	}
}

// bits renders an estimate's every float exactly.
func bits(e *design.Estimate) string {
	s := fmt.Sprintf("total %x orig %d", math.Float64bits(e.Total), e.OriginalTotal)
	names := make([]string, 0, len(e.PerTable))
	for name := range e.PerTable {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s += fmt.Sprintf(" %s %x", name, math.Float64bits(e.PerTable[name]))
	}
	return s
}
