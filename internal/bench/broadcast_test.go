package bench

import (
	"reflect"
	"testing"
	"time"

	"pref/internal/check"
	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/tpch"
	"pref/internal/value"
)

// choiceRun is one query rewritten without statistics ([0]) and with them
// ([1]), and executed verified.
type choiceRun struct {
	rw    [2]*plan.Rewritten
	bytes [2]int64
	sim   [2]time.Duration
}

// runChoice rewrites query on v's routed group with Options{} and with the
// group's statistics, checks both plans, executes both verified, and holds
// both results to want (sorted rows; nil skips the comparison).
func runChoice(t *testing.T, d *tpch.TPCH, v *Variant, m *Materialized, query string, want []value.Tuple) choiceRun {
	t.Helper()
	gi := v.RouteFor(query)
	var out choiceRun
	for i, opt := range []plan.Options{{}, {Stats: m.Stats[gi]}} {
		rw, err := plan.Rewrite(d.Query(query), d.DB.Schema, v.Groups[gi].Config, opt)
		if err != nil {
			t.Fatalf("%s/%s: rewrite: %v", v.Name, query, err)
		}
		out.rw[i] = rw
		if i == 1 && rw.Explain() == out.rw[0].Explain() {
			out.bytes[1], out.sim[1] = out.bytes[0], out.sim[0] // the same plan
			break
		}
		if err := check.Verify(rw); err != nil {
			t.Errorf("%s/%s: %v\n%s", v.Name, query, err, rw.Explain())
		}
		res, err := engine.ExecuteOpts(rw, m.PDBs[gi], engine.ExecOptions{Verify: true})
		if err != nil {
			t.Fatalf("%s/%s: execute: %v\n%s", v.Name, query, err, rw.Explain())
		}
		res.SortRows()
		if want != nil && !reflect.DeepEqual(res.Rows, want) {
			t.Errorf("%s/%s (stats %v): %d rows differ from single-node execution's %d\n%s",
				v.Name, query, i == 1, len(res.Rows), len(want), rw.Explain())
		}
		out.bytes[i] = res.Stats.BytesShipped
		out.sim[i] = engine.DefaultCostModel().Simulate(res.Stats)
	}
	return out
}

// TestBroadcastChoiceTPCH sweeps the 22 queries over the 7 variants at sf
// 0.05 on 4 nodes, rewritten without statistics and with the statistics of
// the partitioned database they run on. With statistics the rewrite may
// broadcast an input of a misaligned join instead of re-partitioning; this
// holds that choice to its promise. Every plan passes the checker and the
// runtime verifier and answers what the query answers on one node, and no
// plan ships more bytes or takes more simulated time than the plan made
// without statistics, but for the listed exceptions.
func TestBroadcastChoiceTPCH(t *testing.T) {
	// slower lists the plans whose simulated time may rise. AllHashed's Q20
	// broadcasts the one nation row instead of shipping ~20 suppliers to
	// that nation's node: it ships 160 B less and processes 14 rows less in
	// all, but its busiest node gets 20 more (+0.04 ms), a placement skew
	// the estimator does not model.
	slower := map[string]bool{"AllHashed/Q20": true}
	// The bytes the benchmark's join_hashed mix ships per query. A runtime
	// filter from a broadcast source is local and ships nothing, which also
	// tips Q3 to broadcast customer; Q21's anti join with a residual is no
	// longer estimated empty, so it broadcasts nation.
	pinned := map[string]int64{
		"Q3": 155832, "Q5": 656896, "Q7": 3607520, "Q10": 434728,
		"Q12": 21632, "Q18": 3990648, "Q21": 1299088,
	}
	d := tpch.Generate(0.05, 42)
	refs := singleNodeRows(t, d)
	for _, name := range []string{"AllHashed", "AllReplicated", "CP", "SD", "SD-noRed", "SD-paper", "WD"} {
		v, err := TPCHVariant(d, 4, name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Materialize(v, d.DB)
		if err != nil {
			t.Fatal(err)
		}
		for _, query := range tpch.QueryNames {
			key := name + "/" + query
			c := runChoice(t, d, v, m, query, refs[query])
			if c.rw[0].Explain() != c.rw[1].Explain() {
				t.Logf("%-16s bytes %9d -> %9d, sim %9.3f -> %9.3f ms", key,
					c.bytes[0], c.bytes[1], ms(c.sim[0]), ms(c.sim[1]))
			}
			if c.bytes[1] > c.bytes[0] {
				t.Errorf("%s ships more with statistics: %d -> %d B\n%s", key, c.bytes[0], c.bytes[1], c.rw[1].Explain())
			}
			if c.sim[1] > c.sim[0] && !slower[key] {
				t.Errorf("%s is slower with statistics: %v -> %v\n%s", key, c.sim[0], c.sim[1], c.rw[1].Explain())
			}
			if want, ok := pinned[query]; ok && name == "AllHashed" && c.bytes[1] != want {
				t.Errorf("%s ships %d B, want %d", key, c.bytes[1], want)
			}
			// The old size heuristic broadcast the join of customer and
			// orders here, which ships more than the repartitions it saves.
			if (query == "Q5" || query == "Q10") && name == "AllHashed" {
				for _, b := range findPlan(c.rw[1].Root, isBroadcast) {
					if scans(b, "customer") && scans(b, "orders") {
						t.Errorf("%s broadcasts customer ⋈ orders\n%s", key, c.rw[1].Explain())
					}
				}
			}
		}
	}
}

// TestBroadcastChoiceTraps pins two plans at sf 0.01 that a cruder estimate
// gets wrong: mixed_rw's Q14 on SD at 4 nodes keeps its plan, and SD-noRed's
// Q9 at 10 nodes, Figure 7's scale, is not slower with statistics — a
// broadcast build side is copied to every node, and its per-node rows must
// be priced as such.
func TestBroadcastChoiceTraps(t *testing.T) {
	d := tpch.Generate(0.01, 42)
	for _, c := range []struct {
		variant, query string
		parts          int
	}{
		{"SD", "Q14", 4},
		{"SD-noRed", "Q9", 10},
	} {
		v, err := TPCHVariant(d, c.parts, c.variant)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Materialize(v, d.DB)
		if err != nil {
			t.Fatal(err)
		}
		r := runChoice(t, d, v, m, c.query, nil)
		if c.query == "Q14" && r.rw[0].Explain() != r.rw[1].Explain() {
			t.Errorf("%s/%s: the plan changed with statistics\n%s", c.variant, c.query, r.rw[1].Explain())
		}
		if r.sim[1] > r.sim[0] {
			t.Errorf("%s/%s is slower with statistics: %v -> %v\n%s", c.variant, c.query, r.sim[0], r.sim[1], r.rw[1].Explain())
		}
	}
}

func isBroadcast(n plan.Node) bool { _, ok := n.(*plan.BroadcastNode); return ok }

// findPlan returns the nodes of the plan at n that match pred.
func findPlan(n plan.Node, pred func(plan.Node) bool) []plan.Node {
	var out []plan.Node
	walkPlan(n, func(x plan.Node) {
		if pred(x) {
			out = append(out, x)
		}
	})
	return out
}

// scans reports whether the plan at n scans table tbl.
func scans(n plan.Node, tbl string) bool {
	return len(findPlan(n, func(x plan.Node) bool { s, ok := x.(*plan.ScanNode); return ok && s.Table == tbl })) > 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
