package tpch

// Plan-shape regression tests: under the paper's SD configuration the
// rewriter must keep the chain queries fully local (no exchanges), and
// must insert exchanges exactly where locality is impossible.

import (
	"context"
	"strings"
	"testing"

	"pref/internal/engine"
	"pref/internal/partition"
	"pref/internal/plan"
)

// paperSD mirrors bench.PaperSDConfig (duplicated here to avoid an import
// cycle with the bench package).
func paperSD(n int) *partition.Config {
	cfg := partition.NewConfig(n)
	cfg.SetHash("lineitem", "orderkey")
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	cfg.SetPref("partsupp", "lineitem", []string{"partkey", "suppkey"}, []string{"partkey", "suppkey"})
	cfg.SetPref("part", "partsupp", []string{"partkey"}, []string{"partkey"})
	for _, tbl := range []string{"supplier", "nation", "region"} {
		cfg.SetReplicated(tbl)
	}
	return cfg
}

func countExchanges(n plan.Node) (reparts, bcasts int) {
	switch n.(type) {
	case *plan.RepartitionNode, *plan.DistinctByValueNode:
		reparts++
	case *plan.BroadcastNode:
		bcasts++
	}
	for _, c := range n.Children() {
		r, b := countExchanges(c)
		reparts += r
		bcasts += b
	}
	return
}

func TestPlanShapesUnderPaperSD(t *testing.T) {
	d := Generate(0.002, 7)
	cfg := paperSD(10)

	cases := []struct {
		query       string
		maxReparts  int
		description string
	}{
		// Q4: o ⋉ σ(l) on orderkey — ORDERS is hash-equivalent, lineitem
		// is the hash seed: case (1) semi join, fully local; the group-by
		// on orderpriority is the only shuffle.
		{"Q4", 1, "semi join local; one group-by shuffle"},
		// Q9: l⋈ps⋈p⋈o⋈s⋈n all along chains — only the final group-by
		// (n.name, year) shuffles.
		{"Q9", 1, "chain joins local"},
		// Q3: joins local; group-by covers the orderkey hash column via
		// equivalences, so even the aggregation is local.
		{"Q3", 0, "fully local incl. aggregation"},
		// Q21: s⋈l1⋈o local; the exists/not-exists blocks join through
		// o.orderkey (referenced side on the left) — local and safe; only
		// the s.name group-by shuffles.
		{"Q21", 1, "self-join exists blocks local"},
		// Q13: customer ⟕ orders is local (right side is the referencing
		// bare-ish scan... the filtered right side forces a shuffle), and
		// the two aggregation levels shuffle.
		{"Q13", 3, "outer join with filtered right repartitions"},
	}
	for _, c := range cases {
		rw, err := plan.Rewrite(d.Query(c.query), d.DB.Schema, cfg, plan.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		reparts, _ := countExchanges(rw.Root)
		if reparts > c.maxReparts {
			t.Errorf("%s: %d repartitions, want ≤ %d (%s)\n%s",
				c.query, reparts, c.maxReparts, c.description, rw.Explain())
		}
	}
}

func TestQ4SemiJoinIsCase1Local(t *testing.T) {
	d := Generate(0.002, 7)
	rw, err := plan.Rewrite(d.Query("Q4"), d.DB.Schema, paperSD(10), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := rw.Explain()
	if !strings.Contains(out, "SEMIJoin") {
		t.Fatalf("Q4 should contain a semi join:\n%s", out)
	}
	// The semi join itself must not be preceded by a repartition of the
	// orders side (hash-equivalence makes it case 1).
	if strings.Count(out, "Repartition") > 1 {
		t.Fatalf("Q4 should shuffle only for the group-by:\n%s", out)
	}
}

func TestHasRefOptimizationAppliesOnPaperSD(t *testing.T) {
	d := Generate(0.002, 7)
	// customer ⋉ orders on the partitioning predicate → hasRef filter.
	q := plan.Join(plan.Scan("customer", "c"), plan.Scan("orders", "o"),
		plan.Semi, []string{"c.custkey"}, []string{"o.custkey"})
	rw, err := plan.Rewrite(q, d.DB.Schema, paperSD(10), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := rw.Explain()
	if !strings.Contains(out, "__hasref") {
		t.Fatalf("semi join against the referenced table should become a hasRef filter:\n%s", out)
	}
	if strings.Contains(out, "Join") {
		t.Fatalf("no join should remain:\n%s", out)
	}
}

// The same queries must also produce correct results under paper-SD
// (cross-checked against the single-node reference).
func TestPaperSDCorrectness(t *testing.T) {
	d := Generate(0.002, 7)
	ref := partition.NewConfig(1)
	for _, tbl := range d.DB.Schema.Tables() {
		ref.SetHash(tbl.Name, tbl.PK...)
	}
	cfgs := map[string]*partition.Config{"reference": ref, "paper-sd": paperSD(10)}
	for _, q := range QueryNames {
		results := map[string]int{}
		for name, cfg := range cfgs {
			pdb, err := partition.Apply(d.DB, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rw, err := plan.Rewrite(d.Query(q), d.DB.Schema, cfg, plan.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", q, name, err)
			}
			res, err := engine.ExecuteCtx(context.Background(), rw, pdb, engine.ExecOptions{})
			if err != nil {
				t.Fatalf("%s/%s: %v", q, name, err)
			}
			results[name] = len(res.Rows)
		}
		if results["reference"] != results["paper-sd"] {
			t.Errorf("%s: row counts diverge: %v", q, results)
		}
	}
}
