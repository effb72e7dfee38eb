package design

import (
	"fmt"
	"sort"
	"strings"

	"pref/internal/graph"
	"pref/internal/table"
)

// QueryJoin is one equi-join predicate of a workload query:
// TableA.ColsA[i] = TableB.ColsB[i].
type QueryJoin struct {
	TableA string
	ColsA  []string
	TableB string
	ColsB  []string
}

// Query is a workload query abstracted to what the WD algorithm consumes
// (Section 4.1): the tables it reads and its equi-join predicates.
// Non-equi joins are omitted from the graph by construction, as the paper
// prescribes.
type Query struct {
	Name string
	// Tables lists tables read without joins (single-table components).
	Tables []string
	Joins  []QueryJoin
}

// Graph derives the query's schema graph G_S(Q) with table-size weights.
func (q Query) Graph(sizes Sizes) *graph.Graph {
	g := graph.New()
	for _, t := range q.Tables {
		g.AddNode(t)
	}
	for _, j := range q.Joins {
		w := sizes[j.TableA]
		if sizes[j.TableB] < w {
			w = sizes[j.TableB]
		}
		g.AddEdge(graph.Edge{
			A: j.TableA, B: j.TableB,
			ACols: j.ColsA, BCols: j.ColsB,
			Weight: int64(w),
		})
	}
	return g
}

// WDOptions configures the workload-driven design algorithm.
type WDOptions struct {
	// Parts is the number of partitions / nodes (required).
	Parts int
	// SampleRate / SampleSeed control histogram sampling (0/1 = exact;
	// a rate outside [0, 1] is an error).
	SampleRate float64
	SampleSeed int64
	// DisablePhase1 skips the containment merge (ablation only).
	DisablePhase1 bool
	// NoRedundancy lists tables that must stay duplicate-free in every
	// group (Section 3.4 constraints applied per merged MAST). With all
	// tables listed this is the paper's OLTP outlook: transactions touch
	// tuple groups described by join predicates, clustered without any
	// redundancy.
	NoRedundancy []string
}

// WDGroup is one merged MAST of the final design, with its optimal
// partitioning configuration.
type WDGroup struct {
	// Units are the merged unit names ("query#component").
	Units []string
	// Queries are the workload queries routed to this group.
	Queries []string
	// Tree is the merged MAST.
	Tree *graph.Graph
	// PC is the group's optimal configuration.
	PC *PC
}

// WDDesign is the output of the workload-driven algorithm: a set of merged
// MASTs, each with its own configuration. A table may appear in several
// groups under different schemes; EstimatedDR de-duplicates tables that
// share an identical deep scheme (Section 4.3).
type WDDesign struct {
	Parts  int
	Groups []*WDGroup
	// UnitsBeforeMerge / AfterPhase1 record the search-space reduction
	// the paper reports (165 → 17 → 7 for TPC-DS).
	UnitsBeforeMerge int
	UnitsAfterPhase1 int

	route map[string][]int // query name → group indexes
}

// GroupsFor returns the indexes of the groups a query was routed to (one
// per connected component of the query's join graph).
func (d *WDDesign) GroupsFor(query string) []int {
	return append([]int(nil), d.route[query]...)
}

// EstimatedDR computes the design's global estimated data-redundancy:
// tables occurring in several groups under the same deep scheme are
// counted once; under different schemes they are physically duplicated.
// The denominator is Σ|T| over distinct tables used by the workload.
func (d *WDDesign) EstimatedDR(sizes Sizes) (float64, error) {
	type copyKey struct{ table, sig string }
	stored := map[copyKey]float64{}
	var copies []copyKey // first-seen order, so total sums the same way every run
	origTables := map[string]bool{}
	for _, g := range d.Groups {
		for _, t := range g.PC.Config.Names() {
			sig, err := g.PC.Config.SchemeSignature(t)
			if err != nil {
				return 0, err
			}
			k := copyKey{t, sig}
			if _, ok := stored[k]; !ok {
				copies = append(copies, k)
			}
			stored[k] = g.PC.Est.PerTable[t]
			origTables[t] = true
		}
	}
	var total float64
	for _, k := range copies {
		total += stored[k]
	}
	var orig int
	for t := range origTables {
		orig += sizes[t]
	}
	if orig == 0 {
		return 0, nil
	}
	return total/float64(orig) - 1, nil
}

// FilterWorkload removes the given (typically small, replicated) tables
// from a workload's query graphs: edges touching an excluded table are
// dropped, and a query endpoint left without any edge survives as a
// joinless table so the query still routes to a group holding it.
func FilterWorkload(w []Query, excluded []string) []Query {
	drop := map[string]bool{}
	for _, t := range excluded {
		drop[t] = true
	}
	var out []Query
	for _, q := range w {
		nq := Query{Name: q.Name}
		covered := map[string]bool{}
		for _, e := range q.Joins {
			if !drop[e.TableA] && !drop[e.TableB] {
				nq.Joins = append(nq.Joins, e)
				covered[e.TableA] = true
				covered[e.TableB] = true
			}
		}
		keepTable := func(t string) {
			if !drop[t] && !covered[t] {
				covered[t] = true
				nq.Tables = append(nq.Tables, t)
			}
		}
		for _, t := range q.Tables {
			keepTable(t)
		}
		// Endpoints orphaned by dropped edges stay as joinless tables.
		for _, e := range q.Joins {
			keepTable(e.TableA)
			keepTable(e.TableB)
		}
		if len(nq.Tables)+len(nq.Joins) > 0 {
			out = append(out, nq)
		}
	}
	return out
}

// unit is one connected component of one query's join graph, the
// granularity at which merging happens.
type unit struct {
	name    string
	queries map[string]bool
	pc      *PC // pc.Tree is the unit's MAST
}

// WorkloadDriven runs the workload-driven design algorithm of Section 4:
// per-query MASTs, a containment merge (phase 1), then cost-based merging
// driven by estimated partitioned size with memoization (phase 2).
func WorkloadDriven(db *table.Database, queries []Query, opt WDOptions) (*WDDesign, error) {
	if opt.Parts < 1 {
		return nil, fmt.Errorf("design: Parts = %d, want >= 1", opt.Parts)
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("design: empty workload")
	}
	if err := checkSampleRate(opt.SampleRate); err != nil {
		return nil, err
	}
	sizes := SizesOf(db)
	hp := NewHistProvider(db, opt.SampleRate, opt.SampleSeed)

	// Step 1: one unit per connected component per query, each with its
	// optimal MAST and configuration. The MASTs come first, so the
	// histograms their search prices are built up front, in parallel.
	masts := make([][][]*graph.Graph, len(queries))
	var trees []*graph.Graph
	for qi, q := range queries {
		qg := q.Graph(sizes)
		for _, comp := range qg.Components() {
			m := qg.Subgraph(comp).MaximumSpanningTrees(maxMASTs)
			masts[qi] = append(masts[qi], m)
			trees = append(trees, m...)
		}
	}
	hp.Prefetch(trees)
	solve := func(comps [][]*graph.Graph) (*PC, error) {
		return Solve(comps, db.Schema, sizes, hp, opt.Parts, opt.NoRedundancy)
	}
	var units []*unit
	for qi, q := range queries {
		for i, m := range masts[qi] {
			pc, err := solve([][]*graph.Graph{m})
			if err != nil {
				return nil, fmt.Errorf("design: query %s: %w", q.Name, err)
			}
			units = append(units, &unit{
				name:    fmt.Sprintf("%s#%d", q.Name, i),
				queries: map[string]bool{q.Name: true},
				pc:      pc,
			})
		}
	}
	before := len(units)

	// Phase 1: merge units whose MAST is fully contained in another
	// unit's MAST (Section 4.1). No cycles can arise, and the absorbing
	// unit's configuration is unchanged.
	if !opt.DisablePhase1 {
		units = containmentMerge(units)
	}
	after1 := len(units)

	// Phase 2: cost-based merging. Process units in a deterministic
	// order; at each level, either keep the new unit standalone or merge
	// it into an existing group when the union stays acyclic and the
	// merged estimate beats the sum of the parts (Section 4.3).
	sort.Slice(units, func(i, j int) bool { return units[i].name < units[j].name })
	memo := map[string]*PC{} // merged-tree signature → optimal PC
	solveMerged := func(tree *graph.Graph) (*PC, error) {
		sig := treeSignature(tree)
		if pc, ok := memo[sig]; ok {
			return pc, nil
		}
		pc, err := solve(OwnMASTs(tree))
		memo[sig] = pc
		return pc, err
	}

	var groups []*unit
	for _, u := range units {
		bestIdx := -1
		var bestMerged *unit
		bestGain := 0.0
		for i, g := range groups {
			merged := g.pc.Tree.Union(u.pc.Tree)
			if !merged.IsAcyclic() {
				continue // would sacrifice data-locality
			}
			if !sharesNode(g.pc.Tree, u.pc.Tree) {
				continue // disjoint merge can never reduce redundancy
			}
			pc, err := solveMerged(merged)
			if err != nil {
				return nil, err
			}
			gain := g.pc.Est.Total + u.pc.Est.Total - pc.Est.Total
			if gain > bestGain+1e-9 {
				bestGain = gain
				bestIdx = i
				bestMerged = &unit{
					name:    g.name + "+" + u.name,
					queries: unionSets(g.queries, u.queries),
					pc:      pc,
				}
			}
		}
		if bestIdx >= 0 {
			groups[bestIdx] = bestMerged
		} else {
			groups = append(groups, u)
		}
	}

	d := &WDDesign{
		Parts:            opt.Parts,
		UnitsBeforeMerge: before,
		UnitsAfterPhase1: after1,
		route:            map[string][]int{},
	}
	for gi, g := range groups {
		wg := &WDGroup{Tree: g.pc.Tree, PC: g.pc}
		wg.Units = strings.Split(g.name, "+")
		sort.Strings(wg.Units)
		wg.Queries = sortedNames(g.queries)
		d.Groups = append(d.Groups, wg)
		for q := range g.queries {
			d.route[q] = append(d.route[q], gi)
		}
	}
	return d, nil
}

// containmentMerge implements phase 1: units fully contained in a larger
// unit's MAST are absorbed. Units are scanned largest-first so chains of
// containment resolve in one pass.
func containmentMerge(units []*unit) []*unit {
	ordered := append([]*unit(nil), units...)
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i].pc.Tree, ordered[j].pc.Tree
		if a.NumEdges() != b.NumEdges() {
			return a.NumEdges() > b.NumEdges()
		}
		if a.NumNodes() != b.NumNodes() {
			return a.NumNodes() > b.NumNodes()
		}
		return ordered[i].name < ordered[j].name
	})
	absorbed := make([]bool, len(ordered))
	for j := len(ordered) - 1; j >= 0; j-- {
		if absorbed[j] {
			continue
		}
		for i := 0; i < j; i++ {
			if absorbed[i] {
				continue
			}
			if ordered[j].pc.Tree.ContainedIn(ordered[i].pc.Tree) {
				ordered[i].queries = unionSets(ordered[i].queries, ordered[j].queries)
				absorbed[j] = true
				break
			}
		}
	}
	var out []*unit
	for i, u := range ordered {
		if !absorbed[i] {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func sharesNode(a, b *graph.Graph) bool {
	for _, n := range a.Nodes() {
		if b.HasNode(n) {
			return true
		}
	}
	return false
}

func unionSets(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func treeSignature(g *graph.Graph) string {
	var parts []string
	for _, e := range g.Edges() {
		parts = append(parts, e.ID())
	}
	sort.Strings(parts)
	return strings.Join(append(parts, g.Nodes()...), ";")
}
