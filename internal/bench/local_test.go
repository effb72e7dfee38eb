package bench

import (
	"reflect"
	"testing"

	"pref/internal/check"
	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/tpch"
)

// TestLocalFiltersTPCH sweeps the 22 queries over the 7 variants at sf 0.05
// on 4 nodes and at sf 0.01 on 10, rewritten with the statistics of the
// partitioned database they run on, where a selective input of a join whose
// other input reaches it through no exchange filters that input in place.
// Every plan passes the checker and the runtime verifier and answers what
// the query answers on one node. On SD at sf 0.05, the benchmark's join_pref
// and mixed_rw mixes ship no more bytes and take no more simulated time than
// the plans made before local filters, pinned below, and Q21, whose one
// nation now filters its three lineitem scans, takes at most 700 ms.
func TestLocalFiltersTPCH(t *testing.T) {
	type cost struct {
		bytes int64
		simMs float64
	}
	before := map[string]cost{
		"Q3": {28480, 408.311840}, "Q4": {288, 388.768304}, "Q5": {304, 429.078432},
		"Q6": {24, 155.164192}, "Q7": {74880, 765.271040}, "Q10": {56760, 288.216080},
		"Q12": {192, 232.363536}, "Q14": {129136, 196.363087}, "Q18": {494208, 664.839664},
		"Q21": {1312, 1440.128496},
	}
	for _, sc := range []struct {
		sf    float64
		parts int
	}{{0.05, 4}, {0.01, 10}} {
		d := tpch.Generate(sc.sf, 42)
		refs := singleNodeRows(t, d)
		local := 0
		for _, name := range []string{"AllHashed", "AllReplicated", "CP", "SD", "SD-noRed", "SD-paper", "WD"} {
			v, err := TPCHVariant(d, sc.parts, name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Materialize(v, d.DB)
			if err != nil {
				t.Fatal(err)
			}
			for _, query := range tpch.QueryNames {
				gi := v.RouteFor(query)
				rw, err := plan.Rewrite(d.Query(query), d.DB.Schema, v.Groups[gi].Config, plan.Options{Stats: m.Stats[gi]})
				if err != nil {
					t.Fatalf("%s/%s: rewrite: %v", name, query, err)
				}
				local += len(findPlan(rw.Root, func(n plan.Node) bool {
					f, ok := n.(*plan.RuntimeFilterNode)
					return ok && f.Local
				}))
				if err := check.Verify(rw); err != nil {
					t.Errorf("sf %v/%s/%s: %v\n%s", sc.sf, name, query, err, rw.Explain())
				}
				res, err := engine.ExecuteOpts(rw, m.PDBs[gi], engine.ExecOptions{Verify: true})
				if err != nil {
					t.Fatalf("sf %v/%s/%s: execute: %v\n%s", sc.sf, name, query, err, rw.Explain())
				}
				res.SortRows()
				if !reflect.DeepEqual(res.Rows, refs[query]) {
					t.Errorf("sf %v/%s/%s: %d rows differ from single-node execution's %d\n%s",
						sc.sf, name, query, len(res.Rows), len(refs[query]), rw.Explain())
				}
				want, pinned := before[query]
				if sc.sf != 0.05 || name != "SD" || !pinned {
					continue
				}
				simMs := ms(engine.DefaultCostModel().Simulate(res.Stats))
				if res.Stats.BytesShipped > want.bytes || simMs > want.simMs {
					t.Errorf("SD/%s: %d B, %.3f sim ms; before local filters %d B, %.3f ms\n%s",
						query, res.Stats.BytesShipped, simMs, want.bytes, want.simMs, rw.Explain())
				}
				if query == "Q21" && simMs > 700 {
					t.Errorf("SD/Q21 takes %.3f sim ms, want at most 700\n%s", simMs, rw.Explain())
				}
			}
		}
		if local == 0 {
			t.Errorf("sf %v: the sweep placed no local filter", sc.sf)
		}
	}
}
