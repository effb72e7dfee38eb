package design

import (
	"fmt"
	"sort"

	"pref/internal/catalog"
	"pref/internal/graph"
	"pref/internal/partition"
)

// PC bundles a partitioning configuration with its estimate, the spanning
// forest it was built on, and the edges it actually co-partitions on
// (Eco ⊆ Tree's edges; edges cut between multi-seed regions are
// excluded).
type PC struct {
	Config *partition.Config
	Est    *Estimate
	Seeds  []string
	Tree   *graph.Graph
	Eco    *graph.Graph
}

// BuildPC constructs the partitioning configuration for a spanning tree
// (or forest) and a set of seed tables, following the pattern of Listing 1:
// every seed is hash-partitioned on the join attribute of its heaviest
// incident tree edge (falling back to its primary key), and every other
// table is recursively PREF-partitioned toward its nearest seed.
//
// Regions are formed by deterministic multi-source BFS over the tree;
// every component must contain at least one seed. Edges crossing regions
// are cut (not co-partitioned).
func BuildPC(tree *graph.Graph, seeds []string, schema *catalog.Schema, n int) (*partition.Config, *graph.Graph, error) {
	seedSet := map[string]bool{}
	for _, s := range seeds {
		if !tree.HasNode(s) {
			return nil, nil, fmt.Errorf("design: seed %s not in tree", s)
		}
		seedSet[s] = true
	}
	for _, comp := range tree.Components() {
		has := false
		for _, t := range comp {
			if seedSet[t] {
				has = true
				break
			}
		}
		if !has {
			return nil, nil, fmt.Errorf("design: component %v has no seed", comp)
		}
	}

	cfg := partition.NewConfig(n)
	eco := graph.New()
	for _, t := range tree.Nodes() {
		eco.AddNode(t)
	}

	// Seed schemes.
	for _, s := range sortedNames(seedSet) {
		cols := seedHashCols(tree, s, schema)
		cfg.SetHash(s, cols...)
	}

	// Multi-source BFS assigning every node a parent toward its region's
	// seed; the BFS order (sorted seeds, then sorted adjacency) is
	// deterministic so designs are reproducible.
	parent := map[string]graph.Edge{}
	owned := map[string]bool{}
	queue := sortedNames(seedSet)
	for _, s := range queue {
		owned[s] = true
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range tree.EdgesAt(cur) {
			next := e.Other(cur)
			if owned[next] {
				continue
			}
			owned[next] = true
			parent[next] = e
			queue = append(queue, next)
		}
	}

	for child, e := range parent {
		p := e.Other(child)
		cfg.SetPref(child, p, e.ColsOf(child), e.ColsOf(p))
		eco.AddEdge(e)
	}
	return cfg, eco, nil
}

// seedHashCols picks the partitioning attribute for a seed table: the
// seed-side columns of its heaviest incident tree edge (Section 3.1), or
// the primary key (or first column) if the seed is isolated.
func seedHashCols(tree *graph.Graph, seed string, schema *catalog.Schema) []string {
	edges := tree.EdgesAt(seed) // weight-descending
	if len(edges) > 0 {
		return edges[0].ColsOf(seed)
	}
	t := schema.Table(seed)
	if t != nil && len(t.PK) > 0 {
		return append([]string(nil), t.PK...)
	}
	if t != nil && t.NumCols() > 0 {
		return []string{t.Columns[0].Name}
	}
	return nil
}

// maxSetsPerK caps the seed sets Solve tries per MAST and k, a safety
// valve for very wide schemas: constraints hold at small k in practice
// (TPC-H needs k = 2), far below the cap.
const maxSetsPerK = 20000

// Solve is the design search of Listing 1 with the no-redundancy
// constraints of Section 3.4. comps holds each connected component's
// MASTs (a tree is its own only MAST). Per component, it tries seed sets
// of growing size k on every MAST and stops at the first k where some
// configuration keeps the noRedundancy tables duplicate-free; without
// constraints that is k = 1. better picks among all seed sets of that k,
// and so among the MASTs. Each set is built and estimated once, and
// mergePCs joins the components' winners.
func Solve(comps [][]*graph.Graph, schema *catalog.Schema, sizes Sizes, hp *HistProvider, n int, noRedundancy []string) (*PC, error) {
	pcs := make([]*PC, len(comps))
	for i, masts := range comps {
		for k := 1; pcs[i] == nil && k <= masts[0].NumNodes(); k++ {
			for _, tree := range masts {
				var sets [][]string
				combinations(tree.Nodes(), k, func(set []string) {
					if len(sets) < maxSetsPerK {
						sets = append(sets, append([]string(nil), set...))
					}
				})
				for _, seeds := range sets {
					cfg, eco, err := BuildPC(tree, seeds, schema, n)
					if err != nil {
						return nil, err
					}
					est, err := EstimateConfig(cfg, sizes, hp)
					if err != nil {
						return nil, err
					}
					pc := &PC{Config: cfg, Est: est, Seeds: seeds, Tree: tree, Eco: eco}
					if duplicateFree(est, sizes, noRedundancy) && (pcs[i] == nil || better(pc, pcs[i])) {
						pcs[i] = pc
					}
				}
			}
		}
		if pcs[i] == nil {
			return nil, fmt.Errorf("design: component %v: constraints unsatisfiable with any seed set", masts[0].Nodes())
		}
	}
	return mergePCs(n, pcs), nil
}

// OwnMASTs splits a forest into its trees, each its own only MAST, as
// Solve takes them.
func OwnMASTs(forest *graph.Graph) [][]*graph.Graph {
	var comps [][]*graph.Graph
	for _, comp := range forest.Components() {
		comps = append(comps, []*graph.Graph{forest.Subgraph(comp)})
	}
	return comps
}

// duplicateFree reports whether the estimate keeps every listed table at
// its original size (to within 1e-6); tables it does not cover pass.
func duplicateFree(est *Estimate, sizes Sizes, tables []string) bool {
	for _, t := range tables {
		if est.PerTable[t] > float64(sizes[t])*(1+1e-6) {
			return false
		}
	}
	return true
}

// better is the one ranking of configurations, of seed sets and of MASTs
// alike: more kept co-partitioning weight (locality) first, smaller
// estimated size second; on a tie the incumbent stays.
func better(a, b *PC) bool {
	wa, wb := a.Eco.TotalWeight(), b.Eco.TotalWeight()
	if wa != wb {
		return wa > wb
	}
	return a.Est.Total < b.Est.Total
}

// combinations invokes fn with every k-subset of items (in lexicographic
// order). fn must copy the slice if it retains it.
func combinations(items []string, k int, fn func([]string)) {
	if k <= 0 || k > len(items) {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	buf := make([]string, k)
	for {
		for i, j := range idx {
			buf[i] = items[j]
		}
		fn(buf)
		// advance
		i := k - 1
		for i >= 0 && idx[i] == len(items)-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// mergePCs combines per-component PCs into one.
func mergePCs(n int, pcs []*PC) *PC {
	cfg := partition.NewConfig(n)
	tree, eco := graph.New(), graph.New()
	est := &Estimate{PerTable: map[string]float64{}}
	var seeds []string
	for _, pc := range pcs {
		for t, s := range pc.Config.Schemes {
			cfg.Schemes[t] = s
		}
		tree, eco = tree.Union(pc.Tree), eco.Union(pc.Eco)
		for t, v := range pc.Est.PerTable {
			est.PerTable[t] = v
		}
		est.Total += pc.Est.Total
		est.OriginalTotal += pc.Est.OriginalTotal
		seeds = append(seeds, pc.Seeds...)
	}
	sort.Strings(seeds)
	return &PC{Config: cfg, Est: est, Seeds: seeds, Tree: tree, Eco: eco}
}
