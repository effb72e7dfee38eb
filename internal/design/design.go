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

	"pref/internal/catalog"
	"pref/internal/graph"
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
// memoizes them per (table, columns). Rate 1 builds exact histograms;
// lower rates reproduce the sampling trade-off of Figure 13.
type HistProvider struct {
	DB    *table.Database
	Rate  float64
	Seed  int64
	cache map[string]*stats.Histogram
}

// NewHistProvider returns a provider over db with the given sampling rate
// in (0, 1], or 0 for exact histograms. Under any other rate every Hist
// fails; the designers reject one up front (checkSampleRate).
func NewHistProvider(db *table.Database, rate float64, seed int64) *HistProvider {
	if rate == 0 {
		rate = 1
	}
	return &HistProvider{DB: db, Rate: rate, Seed: seed, cache: map[string]*stats.Histogram{}}
}

// checkSampleRate rejects a sampling rate outside [0, 1]; 0 means exact.
func checkSampleRate(rate float64) error {
	if !(rate >= 0 && rate <= 1) {
		return fmt.Errorf("design: SampleRate = %v, want a rate in (0, 1], or 0 for exact histograms", rate)
	}
	return nil
}

// Hist returns the histogram of the given columns of a table.
func (h *HistProvider) Hist(tbl string, cols []string) (*stats.Histogram, error) {
	key := tbl + "(" + strings.Join(cols, ",") + ")"
	if got, ok := h.cache[key]; ok {
		return got, nil
	}
	d, ok := h.DB.Tables[tbl]
	if !ok {
		return nil, fmt.Errorf("design: no data for table %s", tbl)
	}
	hist, err := stats.BuildSampledHistogram(d, h.Rate, h.Seed, cols...)
	if err != nil {
		return nil, err
	}
	h.cache[key] = hist
	return hist, nil
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
