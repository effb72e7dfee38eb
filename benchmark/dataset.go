package main

import (
	"fmt"
	"time"

	"pref/internal/bench"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/tpch"
)

// dataset is the in-process twin of what prefserve builds at start-up:
// generated TPC-H data, one partitioning variant, and the variant applied.
// Each step is timed on its own, which is where the set-up layer metrics
// come from.
type dataset struct {
	t   *tpch.TPCH
	cfg *partition.Config
	pdb *table.PartitionedDatabase

	generate, variants, apply time.Duration
}

// buildDataset follows cmd/prefserve's run() call for call: same
// generator, same variant builder (which designs every variant to serve
// one), same Materialize.
func buildDataset(sf float64, seed int64, variant string) (*dataset, error) {
	d := &dataset{}
	start := time.Now()
	d.t = tpch.Generate(sf, seed)
	d.generate = time.Since(start)

	start = time.Now()
	vs, err := bench.TPCHVariants(d.t, parts)
	if err != nil {
		return nil, fmt.Errorf("dataset: variants: %w", err)
	}
	d.variants = time.Since(start)
	v, ok := vs[variant]
	if !ok || len(v.Groups) != 1 {
		return nil, fmt.Errorf("dataset: %q is not a single-group variant", variant)
	}

	start = time.Now()
	m, err := bench.Materialize(v, d.t.DB)
	if err != nil {
		return nil, fmt.Errorf("dataset: materialize: %w", err)
	}
	d.apply = time.Since(start)
	d.cfg = v.Groups[0].Config
	d.pdb = m.PDBs[0]
	return d, nil
}

// queries is the prepared-query catalog prefserve registers.
func (d *dataset) queries() map[string]func() plan.Node {
	qs := make(map[string]func() plan.Node, len(tpch.QueryNames))
	for _, q := range tpch.QueryNames {
		q := q
		qs[q] = func() plan.Node { return d.t.Query(q) }
	}
	return qs
}

// storedRatio is |D^P|/|D|: 1.0 with no PREF duplicate and no replica.
func (d *dataset) storedRatio() float64 { return 1 + d.pdb.DataRedundancy() }

// partitionShape reports the stored rows, the PREF duplicates among them,
// and how far the fullest partition is above an even share (1.0 = even).
// It reads the write head, so no loader may be running.
func (d *dataset) partitionShape() (stored, dup int, maxShare float64) {
	perPart := make([]int, d.pdb.N)
	for _, pt := range d.pdb.Tables {
		dup += pt.DuplicateRows()
		for p, part := range pt.Parts {
			perPart[p] += part.Len()
		}
	}
	most := 0
	for _, n := range perPart {
		stored += n
		if n > most {
			most = n
		}
	}
	if stored > 0 {
		maxShare = float64(most) * float64(d.pdb.N) / float64(stored)
	}
	return stored, dup, maxShare
}
