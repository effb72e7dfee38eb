package design

import (
	"fmt"
	"math"
	"sort"

	"pref/internal/catalog"
	"pref/internal/graph"
	"pref/internal/partition"
)

// PC bundles a partitioning configuration with its estimate and the edges
// it actually co-partitions on (Eco ⊆ tree edges; edges cut between
// multi-seed regions are excluded).
type PC struct {
	Config *partition.Config
	Est    *Estimate
	Seeds  []string
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

// FindOptimalPC is Listing 1: enumerate one configuration per candidate
// seed table of the tree and return the one minimizing the estimated
// partitioned size. The tree must be connected.
func FindOptimalPC(tree *graph.Graph, schema *catalog.Schema, sizes Sizes, hp *HistProvider, n int) (*PC, error) {
	sets := make([][]string, 0, tree.NumNodes())
	for _, node := range tree.Nodes() {
		sets = append(sets, []string{node})
	}
	return findBestPC(tree, sets, schema, sizes, hp, n, nil)
}

// findBestPC evaluates candidate seed sets and returns the PC with the
// minimum estimated size that satisfies the validity predicate (nil =
// always valid). Errors building individual candidates abort the search;
// an empty result yields an error.
func findBestPC(tree *graph.Graph, candidateSets [][]string, schema *catalog.Schema,
	sizes Sizes, hp *HistProvider, n int, valid func(*PC) bool) (*PC, error) {

	var best *PC
	bestSize := math.Inf(1)
	for _, seeds := range candidateSets {
		cfg, eco, err := BuildPC(tree, seeds, schema, n)
		if err != nil {
			return nil, err
		}
		est, err := EstimateConfig(cfg, sizes, hp)
		if err != nil {
			return nil, err
		}
		pc := &PC{Config: cfg, Est: est, Seeds: seeds, Eco: eco}
		if valid != nil && !valid(pc) {
			continue
		}
		if est.Total < bestSize {
			best, bestSize = pc, est.Total
		}
	}
	if best == nil {
		return nil, fmt.Errorf("design: no valid partitioning configuration found")
	}
	return best, nil
}

// FindOptimalPCConstrained extends the enumeration per Section 3.4: it
// searches seed sets of increasing size k, up to every table of the tree,
// and returns the first k's best configuration whose no-redundancy
// constraints hold. Data-locality is monotonically non-increasing in k, so
// stopping at the smallest feasible k yields the maximal-locality
// configuration satisfying the constraints.
func FindOptimalPCConstrained(tree *graph.Graph, schema *catalog.Schema, sizes Sizes,
	hp *HistProvider, n int, noRedundancy []string) (*PC, error) {

	nodes := tree.Nodes()
	noRed := map[string]bool{}
	for _, t := range noRedundancy {
		if tree.HasNode(t) {
			noRed[t] = true
		}
	}
	const eps = 1e-6
	valid := func(pc *PC) bool {
		for t := range noRed {
			if pc.Est.PerTable[t] > float64(sizes[t])*(1+eps) {
				return false
			}
		}
		return true
	}

	// Safety valve for very wide schemas: cap the number of seed sets
	// evaluated per k. In practice constraints are satisfied at small k
	// (TPC-H needs k=2), far below the cap.
	const maxSetsPerK = 20000
	for k := 1; k <= len(nodes); k++ {
		var sets [][]string
		combinations(nodes, k, func(set []string) {
			if len(sets) < maxSetsPerK {
				sets = append(sets, append([]string(nil), set...))
			}
		})
		best, err := findBestPC(tree, sets, schema, sizes, hp, n, valid)
		if err == nil {
			// Among same-k candidates, prefer higher locality, then size.
			// findBestPC already minimized size; recheck locality among
			// minimal sizes is subsumed because all k-seed configs on a
			// tree cut exactly k−1 edges only when seeds split regions —
			// we select max-DL via a second pass.
			best = refineForLocality(tree, sets, schema, sizes, hp, n, valid, best)
			return best, nil
		}
	}
	return nil, fmt.Errorf("design: constraints unsatisfiable with up to %d seeds", len(nodes))
}

// refineForLocality re-evaluates the candidate sets preferring (1) maximal
// kept co-partitioning weight, (2) minimal estimated size.
func refineForLocality(tree *graph.Graph, sets [][]string, schema *catalog.Schema,
	sizes Sizes, hp *HistProvider, n int, valid func(*PC) bool, fallback *PC) *PC {

	best := fallback
	bestW := int64(-1)
	bestSize := math.Inf(1)
	for _, seeds := range sets {
		cfg, eco, err := BuildPC(tree, seeds, schema, n)
		if err != nil {
			continue
		}
		est, err := EstimateConfig(cfg, sizes, hp)
		if err != nil {
			continue
		}
		pc := &PC{Config: cfg, Est: est, Seeds: seeds, Eco: eco}
		if valid != nil && !valid(pc) {
			continue
		}
		w := eco.TotalWeight()
		if w > bestW || (w == bestW && est.Total < bestSize) {
			best, bestW, bestSize = pc, w, est.Total
		}
	}
	return best
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

// mergePCs combines per-component PCs into one config/estimate/eco triple.
func mergePCs(n int, pcs []*PC) *PC {
	cfg := partition.NewConfig(n)
	eco := graph.New()
	est := &Estimate{PerTable: map[string]float64{}}
	var seeds []string
	for _, pc := range pcs {
		for t, s := range pc.Config.Schemes {
			cfg.Schemes[t] = s
		}
		eco = eco.Union(pc.Eco)
		for t, v := range pc.Est.PerTable {
			est.PerTable[t] = v
		}
		est.Total += pc.Est.Total
		est.OriginalTotal += pc.Est.OriginalTotal
		seeds = append(seeds, pc.Seeds...)
	}
	sort.Strings(seeds)
	return &PC{Config: cfg, Est: est, Seeds: seeds, Eco: eco}
}
