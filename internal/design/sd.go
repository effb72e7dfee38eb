package design

import (
	"fmt"

	"pref/internal/graph"
	"pref/internal/partition"
	"pref/internal/table"
)

// SDOptions configures the schema-driven design algorithm.
type SDOptions struct {
	// Parts is the number of partitions / nodes (required, ≥ 1).
	Parts int
	// NoRedundancy lists tables that must remain redundancy-free
	// (Section 3.4); satisfied by multi-seed configurations.
	NoRedundancy []string
	// SampleRate in (0,1] builds histograms from a Bernoulli sample;
	// 0 or 1 means exact (Section 5.4 studies this trade-off). A rate
	// below 0 or above 1 is an error.
	SampleRate float64
	// SampleSeed seeds the sampler for reproducibility.
	SampleSeed int64
}

// maxMASTs bounds how many equal-weight alternate MASTs the designers
// evaluate per connected component or query (Section 3.1 notes several can
// exist).
const maxMASTs = 3

// Design is a complete automated design: the configuration, the graphs it
// was derived from, and its predicted quality.
type Design struct {
	// Config assigns a scheme to every table considered by the algorithm.
	Config *partition.Config
	// Graph is the schema graph the design was derived from.
	Graph *graph.Graph
	// Eco is the set of edges actually used for co-partitioning.
	Eco *graph.Graph
	// Seeds are the chosen seed tables (one per region per component).
	Seeds []string
	// Est is the predicted post-partitioning footprint.
	Est *Estimate
	// DL is the data-locality Σ_{e∈Eco} w(e) / Σ_{e∈G_S} w(e).
	DL float64
}

// SchemaDriven runs the schema-driven design algorithm of Section 3:
// build the schema graph from referential constraints, extract the maximum
// spanning tree per connected component, and enumerate seed choices to
// minimize estimated redundancy (Listing 1), honoring any no-redundancy
// constraints by growing the seed set (Section 3.4).
func SchemaDriven(db *table.Database, opt SDOptions) (*Design, error) {
	if opt.Parts < 1 {
		return nil, fmt.Errorf("design: Parts = %d, want >= 1", opt.Parts)
	}
	if err := checkSampleRate(opt.SampleRate); err != nil {
		return nil, err
	}
	sizes := SizesOf(db)
	hp := NewHistProvider(db, opt.SampleRate, opt.SampleSeed)
	gs := SchemaGraph(db.Schema, sizes)

	var pcs []*PC
	for _, comp := range gs.Components() {
		sub := gs.Subgraph(comp)
		masts := sub.MaximumSpanningTrees(maxMASTs)
		var best *PC
		for _, mast := range masts {
			pc, err := solveTree(mast, db, sizes, hp, opt)
			if err != nil {
				return nil, fmt.Errorf("design: component %v: %w", comp, err)
			}
			if best == nil || better(pc, best) {
				best = pc
			}
		}
		pcs = append(pcs, best)
	}
	merged := mergePCs(opt.Parts, pcs)
	return &Design{
		Config: merged.Config,
		Graph:  gs,
		Eco:    merged.Eco,
		Seeds:  merged.Seeds,
		Est:    merged.Est,
		DL:     graph.DataLocality(gs, merged.Eco),
	}, nil
}

// solveTree finds the best configuration for one MAST, constrained or not.
func solveTree(mast *graph.Graph, db *table.Database, sizes Sizes, hp *HistProvider, opt SDOptions) (*PC, error) {
	if len(opt.NoRedundancy) > 0 {
		return FindOptimalPCConstrained(mast, db.Schema, sizes, hp, opt.Parts, opt.NoRedundancy)
	}
	return FindOptimalPC(mast, db.Schema, sizes, hp, opt.Parts)
}

// better orders PCs by kept co-partitioning weight (locality) first,
// estimated size second.
func better(a, b *PC) bool {
	wa, wb := a.Eco.TotalWeight(), b.Eco.TotalWeight()
	if wa != wb {
		return wa > wb
	}
	return a.Est.Total < b.Est.Total
}
