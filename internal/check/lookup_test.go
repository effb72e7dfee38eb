package check_test

import (
	"strings"
	"testing"

	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/partition"
	"pref/internal/plan"
)

// loweredCfg hashes customer on its key and replicates nation: an aggregate
// of customer by the nation name joins nation where customer sits and runs
// in two phases.
func loweredCfg(t *testing.T, sch *catalog.Schema) *partition.Config {
	t.Helper()
	cfg := partition.NewConfig(4)
	cfg.SetHash("lineitem", "l_orderkey")
	cfg.SetHash("orders", "o_orderkey")
	cfg.SetHash("customer", "c_custkey")
	cfg.SetReplicated("nation")
	if err := cfg.Validate(sch); err != nil {
		t.Fatalf("fixture config invalid: %v", err)
	}
	return cfg
}

// lowered rewrites, with statistics, an aggregate of a million customers by
// the name of their nation, 25 nations of distinct names: its partial runs
// below the nation join, grouped by c.c_nation, and its 25 groups merge at
// the coordinator. It returns the plan, its final aggregate, the gather, the
// join and the partial.
func lowered(t *testing.T) (*plan.Rewritten, *plan.FinalAggNode, plan.Node, *plan.JoinNode, *plan.PartialAggNode) {
	t.Helper()
	sch := miniSchema(t)
	col := func(lo, hi int64, ndv float64) plan.ColStats { return plan.ColStats{Min: lo, Max: hi, NDV: ndv} }
	st := &plan.Stats{Tables: map[string]*plan.TableStats{
		"customer": {Rows: 1e6, Cols: []plan.ColStats{col(1, 1e6, 1e6), col(1, 1e6, 1e6), col(0, 24, 25)}},
		"nation":   {Rows: 25, Cols: []plan.ColStats{col(0, 24, 25), col(1, 25, 25)}},
	}}
	j := plan.Join(plan.Scan("customer", "c"), plan.Scan("nation", "n"), plan.Inner,
		[]string{"c.c_nation"}, []string{"n.n_nationkey"})
	q := plan.Aggregate(j, []string{"n.n_name"}, plan.Count("cnt"), plan.Sum(plan.Col("c.c_custkey"), "s"))
	rw, err := plan.Rewrite(q, sch, loweredCfg(t, sch), plan.Options{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	fin, ok := rw.Root.(*plan.FinalAggNode)
	if !ok {
		t.Fatalf("fixture drift: root is not the final aggregate\n%s", rw.Explain())
	}
	ex := fin.Child
	if _, ok := ex.(*plan.GatherNode); !ok {
		t.Fatalf("fixture drift: the final aggregate merges no gather\n%s", rw.Explain())
	}
	jn, ok := ex.Children()[0].(*plan.JoinNode)
	if !ok {
		t.Fatalf("fixture drift: the partial does not run below the nation join\n%s", rw.Explain())
	}
	p, ok := jn.Left.(*plan.PartialAggNode)
	if !ok {
		t.Fatalf("fixture drift: the nation join's left input is no partial\n%s", rw.Explain())
	}
	return rw, fin, ex, jn, p
}

// expectLookup verifies rw and wants a lookup violation whose detail says
// why.
func expectLookup(t *testing.T, rw *plan.Rewritten, why string) {
	t.Helper()
	vs := check.ViolationsOf(check.Verify(rw))
	for _, v := range vs {
		if v.Rule == check.RuleLookup && strings.Contains(v.Detail, why) {
			return
		}
	}
	t.Fatalf("want a %s violation saying %q, got %v\n%s", check.RuleLookup, why, vs, rw.Explain())
}

func TestVerifyPassesOnLoweredPartial(t *testing.T) {
	rw, _, ex, _, p := lowered(t)
	if err := check.Verify(rw); err != nil {
		t.Fatalf("lowered partial fails verification: %v\n%s", err, rw.Explain())
	}
	if got := rw.Schemas[ex].Names(); strings.Join(got, ",") != "cnt,s,n.n_name" {
		t.Errorf("%s ships %v, want the name and the states", ex, got)
	}
	if got := strings.Join(p.GroupBy, ","); got != "c.c_nation" {
		t.Errorf("%s groups by %s, want c.c_nation", p, got)
	}
}

// TestVerifyRejectsLookupOffItsKey: nation's key is widened to (key, name),
// so the join on n_nationkey alone no longer holds it: a state could meet
// several nation rows.
func TestVerifyRejectsLookupOffItsKey(t *testing.T) {
	rw, _, _, _, _ := lowered(t)
	sch := catalog.NewSchema("wide-key")
	for _, name := range rw.Catalog.TableNames() {
		tb := rw.Catalog.Table(name)
		pk := tb.PK
		if name == "nation" {
			pk = []string{"n_nationkey", "n_name"}
		}
		sch.MustAddTable(catalog.MustTable(name, tb.Columns, pk...))
	}
	rw.Catalog = sch
	expectLookup(t, rw, "is not joined on its primary key")
}

// TestVerifyRejectsLookupColumnInAnArgument: the final aggregate claims to
// sum a nation column, which the partial below the nation join never saw.
func TestVerifyRejectsLookupColumnInAnArgument(t *testing.T) {
	rw, fin, _, _, _ := lowered(t)
	fin.Aggs = []plan.AggExpr{fin.Aggs[0], plan.Sum(plan.Col("n.n_nationkey"), "s")}
	expectLookup(t, rw, `reads lookup column "n.n_nationkey"`)
}

// TestVerifyRejectsLoweredPartialOverDuplicates: under a design that stores
// customer by PREF with duplicate copies, the same plan sums every copy: a
// dedup above the nation join would have dropped them, the moved partial
// crosses it.
func TestVerifyRejectsLoweredPartialOverDuplicates(t *testing.T) {
	rw, _, _, _, _ := lowered(t)
	rw.Cfg = miniSD(t, rw.Catalog)
	expectLookup(t, rw, "live PREF duplicates")
}

// TestVerifyRejectsExchangeShippingLookupKeys: the join and the exchange
// above the moved partial carry the join's keys beside the nation name and
// the states; the final aggregate reads none of them.
func TestVerifyRejectsExchangeShippingLookupKeys(t *testing.T) {
	rw, _, ex, jn, p := lowered(t)
	full := rw.Schemas[p].Concat(rw.Schemas[jn.Right])
	rw.Schemas[jn], rw.Schemas[ex] = full, full
	err := check.Verify(rw)
	vs := check.ViolationsOf(err)
	for _, v := range vs {
		if v.Rule == check.RuleDeadColumn && v.Node == ex && strings.Contains(v.Detail, `"c.c_nation"`) {
			return
		}
	}
	t.Fatalf("want a %s violation at %s for c.c_nation, got %v\n%s", check.RuleDeadColumn, ex, err, rw.Explain())
}
