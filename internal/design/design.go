// Package design implements the paper's two automated partitioning design
// algorithms: schema-driven (SD, Section 3) and workload-driven (WD,
// Section 4), both built on the PREF scheme. The optimization goal is to
// maximize data-locality first and minimize estimated data-redundancy
// second.
package design

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"pref/internal/catalog"
	"pref/internal/graph"
	"pref/internal/par"
	"pref/internal/stats"
	"pref/internal/table"
)

// Sizes maps table names to cardinalities; edge weights and estimates are
// derived from it.
type Sizes map[string]int

// SizesOf extracts table cardinalities from a database.
func SizesOf(db *table.Database) Sizes {
	s := make(Sizes, len(db.Tables))
	for name, d := range db.Tables {
		s[name] = d.Len()
	}
	return s
}

// SchemaGraph builds the schema graph G_S of Section 3.1: one node per
// table, one edge per referential constraint, labeled with the equi-join
// predicate and weighted by the size of the smaller table (the relation a
// remote join would ship).
func SchemaGraph(s *catalog.Schema, sizes Sizes) *graph.Graph {
	g := graph.New()
	for _, t := range s.Tables() {
		g.AddNode(t.Name)
	}
	for _, fk := range s.FKs {
		w := sizes[fk.FromTable]
		if sizes[fk.ToTable] < w {
			w = sizes[fk.ToTable]
		}
		g.AddEdge(graph.Edge{
			A: fk.FromTable, B: fk.ToTable,
			ACols: fk.FromCols, BCols: fk.ToCols,
			Weight: int64(w),
		})
	}
	return g
}

// HistProvider supplies (optionally sampled) join-key histograms and
// memoizes them per (table, columns), and the keys each pair of them
// shares. Rate 1 builds exact histograms; lower rates reproduce the
// sampling trade-off of Figure 13. It is safe for concurrent use; a
// histogram two callers build at once is built twice and stored once.
type HistProvider struct {
	DB   *table.Database
	Rate float64
	Seed int64

	mu      sync.Mutex
	hists   map[string]*stats.Histogram
	matches map[[2]*stats.Histogram]*stats.Matches
}

// NewHistProvider returns a provider over db with the given sampling rate
// in (0, 1], or 0 for exact histograms. Under any other rate every Hist
// fails; the designers reject one up front (checkSampleRate).
func NewHistProvider(db *table.Database, rate float64, seed int64) *HistProvider {
	if rate == 0 {
		rate = 1
	}
	return &HistProvider{
		DB: db, Rate: rate, Seed: seed,
		hists:   map[string]*stats.Histogram{},
		matches: map[[2]*stats.Histogram]*stats.Matches{},
	}
}

// checkSampleRate rejects a sampling rate outside [0, 1]; 0 means exact.
func checkSampleRate(rate float64) error {
	if !(rate >= 0 && rate <= 1) {
		return fmt.Errorf("design: SampleRate = %v, want a rate in (0, 1], or 0 for exact histograms", rate)
	}
	return nil
}

func histKey(tbl string, cols []string) string {
	return tbl + "(" + strings.Join(cols, ",") + ")"
}

// Hist returns the histogram of the given columns of a table.
func (h *HistProvider) Hist(tbl string, cols []string) (*stats.Histogram, error) {
	return memoized(&h.mu, h.hists, histKey(tbl, cols), func() (*stats.Histogram, error) {
		d, ok := h.DB.Tables[tbl]
		if !ok {
			return nil, fmt.Errorf("design: no data for table %s", tbl)
		}
		return stats.BuildSampledHistogram(d, h.Rate, h.Seed, cols...)
	})
}

// match returns the keys ref and ring share, matching them on first use.
func (h *HistProvider) match(ref, ring *stats.Histogram) *stats.Matches {
	m, _ := memoized(&h.mu, h.matches, [2]*stats.Histogram{ref, ring}, func() (*stats.Matches, error) {
		return ref.Match(ring), nil
	})
	return m
}

// memoized returns m[k], building it unlocked on first use and recording
// it unless another caller recorded one first; a failed build is not
// recorded.
func memoized[K comparable, V any](mu *sync.Mutex, m map[K]V, k K, build func() (V, error)) (V, error) {
	mu.Lock()
	v, ok := m[k]
	mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	mu.Lock()
	defer mu.Unlock()
	if got, ok := m[k]; ok {
		return got, nil
	}
	m[k] = v
	return v, nil
}

// Prefetch builds, on parallel workers, what EstimateConfig reads when
// it prices the single-seed configurations of the given trees — Solve's
// whole search without constraints, and most of what it reads with them
// and on merged trees: first the histograms, largest table first, then
// the keys each referenced/referencing pair shares. What it cannot build
// is left to the search, which reports why.
func (h *HistProvider) Prefetch(trees []*graph.Graph) {
	type side struct {
		tbl  string
		cols []string
	}
	var sides []side
	var pairs [][2]side
	seenSide, seenPair := map[string]bool{}, map[[2]string]bool{}
	for _, tree := range trees {
		for _, e := range tree.Edges() {
			for _, parent := range []string{e.A, e.B} {
				// A seed on parent's side of e makes e's other table PREF
				// on parent, and EstimateConfig prices e by histograms
				// unless parent is that seed, hashed on e's columns (r(e)
				// = 1): when parent is a leaf, the only seed on its side,
				// hashed on its only edge.
				if len(tree.EdgesAt(parent)) == 1 {
					continue
				}
				child := e.Other(parent)
				pair := [2]side{{parent, e.ColsOf(parent)}, {child, e.ColsOf(child)}}
				keys := [2]string{histKey(parent, pair[0].cols), histKey(child, pair[1].cols)}
				if !seenPair[keys] {
					seenPair[keys] = true
					pairs = append(pairs, pair)
				}
				for i, s := range pair {
					if !seenSide[keys[i]] && h.DB.Tables[s.tbl] != nil {
						seenSide[keys[i]] = true
						sides = append(sides, s)
					}
				}
			}
		}
	}
	rows := func(s side) int { return h.DB.Tables[s.tbl].Len() }
	sort.SliceStable(sides, func(a, b int) bool { return rows(sides[a]) > rows(sides[b]) })
	par.Each(len(sides), func(i int) {
		_, _ = h.Hist(sides[i].tbl, sides[i].cols) // an error recurs in the search
	})
	par.Each(len(pairs), func(i int) {
		ref, err := h.Hist(pairs[i][0].tbl, pairs[i][0].cols)
		if err != nil {
			return
		}
		ring, err := h.Hist(pairs[i][1].tbl, pairs[i][1].cols)
		if err != nil {
			return
		}
		h.match(ref, ring)
	})
}

// subsetOf reports whether every string of a appears in b.
func subsetOf(a, b []string) bool {
	set := make(map[string]bool, len(b))
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

// sortedNames returns the keys of a string set, sorted.
func sortedNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
