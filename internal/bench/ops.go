package bench

import (
	"context"
	"fmt"
	"strings"

	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/tpch"
	"pref/internal/trace"
)

// OpBreakdown executes one TPC-H query (Params.Query, default Q3) on each
// execution variant with tracing enabled and reports the per-operator
// breakdown: consumed/produced rows, shipped rows and KiB, PREF dedup
// hits, and charged work per span. It is the observability counterpart of
// Fig8's per-query totals — the rows make visible *which* operator of a
// variant put tuples on the wire (on a PREF chain the joins read 0
// shipped; on AllHashed the repartitions dominate).
func OpBreakdown(p Params) (*Report, error) {
	query := p.Query
	if query == "" {
		query = "Q3"
	}
	t := tpch.Generate(p.SF, p.Seed)
	vs, err := TPCHVariants(t, p.Parts)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ops", Title: fmt.Sprintf("per-operator breakdown of %s", query),
		Columns: []string{"in", "out", "shipKRows", "shipKiB", "dedup", "workKRows"}}
	variants := append([]string{"AllHashed", "AllReplicated"}, execVariants...)
	for _, name := range variants {
		v, ok := vs[name]
		if !ok {
			continue
		}
		m, err := Materialize(v, t.DB)
		if err != nil {
			return nil, err
		}
		gi := v.RouteFor(query)
		opt := plan.Options{Stats: plan.GatherStats(m.PDBs[gi])}
		rw, err := plan.Rewrite(t.Query(query), t.DB.Schema, v.Groups[gi].Config, opt)
		if err != nil {
			return nil, err
		}
		eopt := p.execOptions(t.DB.TotalRows())
		eopt.Trace = true
		res, err := engine.ExecuteCtx(context.Background(), rw, m.PDBs[gi], eopt)
		if err != nil {
			return nil, err
		}
		res.Trace.Walk(func(ot *trace.OpTrace) {
			mt := &ot.Totals
			r.Add(fmt.Sprintf("%s/%d:%s", name, ot.ID, shortLabel(ot.Label)),
				float64(mt.RowsIn), float64(mt.RowsOut),
				float64(mt.RowsShipped)/1e3, float64(mt.BytesShipped)/1024,
				float64(mt.DedupHits), float64(mt.Work)/1e3)
		})
	}
	r.Notes = append(r.Notes,
		"spans are listed root-first per variant; shipped=0 on every join/scan span is the paper's locality claim in action")
	return r, nil
}

// shortLabel compresses an operator String() to keep report labels
// readable in aligned-table output.
func shortLabel(s string) string {
	if i := strings.IndexByte(s, '('); i > 0 {
		return s[:i]
	}
	return s
}
