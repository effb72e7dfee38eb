package tpch

import (
	"context"
	"reflect"
	"testing"

	"pref/internal/design"
	"pref/internal/engine"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/value"
)

func gen(t testing.TB) *TPCH {
	t.Helper()
	return Generate(0.002, 7)
}

func TestGeneratorCardinalities(t *testing.T) {
	d := gen(t)
	db := d.DB
	if db.Tables["region"].Len() != 5 || db.Tables["nation"].Len() != 25 {
		t.Fatalf("region/nation = %d/%d", db.Tables["region"].Len(), db.Tables["nation"].Len())
	}
	// SF ratios: orders = 10·customer, partsupp = 4·part, supplier =
	// customer/15.
	nc := db.Tables["customer"].Len()
	no := db.Tables["orders"].Len()
	np := db.Tables["part"].Len()
	nps := db.Tables["partsupp"].Len()
	ns := db.Tables["supplier"].Len()
	if no != nc*10 {
		t.Errorf("orders = %d, want %d", no, nc*10)
	}
	if nps != np*4 {
		t.Errorf("partsupp = %d, want %d", nps, np*4)
	}
	if ns != nc/15 {
		t.Errorf("supplier = %d, want %d", ns, nc/15)
	}
	// ~4 lineitems per order.
	nl := db.Tables["lineitem"].Len()
	if nl < no*2 || nl > no*7 {
		t.Errorf("lineitem = %d for %d orders", nl, no)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := Generate(0.001, 42)
	b := Generate(0.001, 42)
	if !reflect.DeepEqual(a.DB.Tables["orders"].Rows, b.DB.Tables["orders"].Rows) {
		t.Fatal("same seed must generate identical data")
	}
	c := Generate(0.001, 43)
	if reflect.DeepEqual(a.DB.Tables["orders"].Rows, c.DB.Tables["orders"].Rows) {
		t.Fatal("different seeds should differ")
	}
}

func TestReferentialIntegrity(t *testing.T) {
	d := gen(t)
	db := d.DB
	keys := func(tbl string, cols ...string) map[value.Key]bool {
		data := db.Tables[tbl]
		idx, err := data.Meta.ColIndexes(cols)
		if err != nil {
			t.Fatal(err)
		}
		out := map[value.Key]bool{}
		for _, r := range data.Rows {
			out[value.MakeKey(r, idx)] = true
		}
		return out
	}
	check := func(from string, fromCols []string, toKeys map[value.Key]bool) {
		data := db.Tables[from]
		idx, err := data.Meta.ColIndexes(fromCols)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range data.Rows {
			if !toKeys[value.MakeKey(r, idx)] {
				t.Fatalf("%s row %v: dangling fk %v", from, r, fromCols)
			}
		}
	}
	check("nation", []string{"regionkey"}, keys("region", "regionkey"))
	check("supplier", []string{"nationkey"}, keys("nation", "nationkey"))
	check("customer", []string{"nationkey"}, keys("nation", "nationkey"))
	check("orders", []string{"custkey"}, keys("customer", "custkey"))
	check("lineitem", []string{"orderkey"}, keys("orders", "orderkey"))
	check("partsupp", []string{"partkey"}, keys("part", "partkey"))
	check("partsupp", []string{"suppkey"}, keys("supplier", "suppkey"))
	// Every lineitem (partkey, suppkey) must hit partsupp — the dbgen
	// permutation property Q9 relies on.
	check("lineitem", []string{"partkey", "suppkey"}, keys("partsupp", "partkey", "suppkey"))
}

func TestTwoThirdsCustomersHaveOrders(t *testing.T) {
	d := gen(t)
	db := d.DB
	with := map[int64]bool{}
	ck := db.Tables["orders"].Meta.ColIndex("custkey")
	for _, r := range db.Tables["orders"].Rows {
		with[r[ck]] = true
	}
	// custkey % 3 == 0 never orders.
	for k := range with {
		if k%3 == 0 {
			t.Fatalf("custkey %d ≡ 0 (mod 3) should have no orders", k)
		}
	}
	nc := db.Tables["customer"].Len()
	if len(with) < nc/3 {
		t.Fatalf("only %d of %d customers have orders", len(with), nc)
	}
}

// configsUnderTest returns the reference plus realistic distributed
// configurations (classical partitioning and the SD design).
func configsUnderTest(t testing.TB, d *TPCH) map[string]*partition.Config {
	t.Helper()
	ref := partition.NewConfig(1)
	for _, tbl := range d.DB.Schema.Tables() {
		ref.SetHash(tbl.Name, tbl.PK...)
	}

	cp := partition.NewConfig(4)
	cp.SetHash("lineitem", "orderkey")
	cp.SetHash("orders", "orderkey")
	for _, tbl := range []string{"customer", "part", "partsupp", "supplier", "nation", "region"} {
		cp.SetReplicated(tbl)
	}

	reduced := d.DB.Without(SmallTables()...)
	sd, err := design.SchemaDriven(reduced, design.SDOptions{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	sdCfg := sd.Config.Clone()
	for _, tbl := range SmallTables() {
		sdCfg.SetReplicated(tbl)
	}

	return map[string]*partition.Config{
		"reference": ref,
		"classical": cp,
		"sd":        sdCfg,
	}
}

func TestAll22QueriesAllConfigs(t *testing.T) {
	d := gen(t)
	cfgs := configsUnderTest(t, d)
	for _, name := range QueryNames {
		var ref []value.Tuple
		for _, cfgName := range []string{"reference", "classical", "sd"} {
			cfg := cfgs[cfgName]
			pdb, err := partition.Apply(d.DB, cfg)
			if err != nil {
				t.Fatalf("%s/%s: apply: %v", name, cfgName, err)
			}
			rw, err := plan.Rewrite(d.Query(name), d.DB.Schema, cfg, plan.Options{})
			if err != nil {
				t.Fatalf("%s/%s: rewrite: %v", name, cfgName, err)
			}
			res, err := engine.ExecuteCtx(context.Background(), rw, pdb, engine.ExecOptions{})
			if err != nil {
				t.Fatalf("%s/%s: execute: %v", name, cfgName, err)
			}
			res.SortRows()
			if cfgName == "reference" {
				ref = res.Rows
				if len(ref) == 0 {
					t.Errorf("%s returned no rows at this scale — widen its filters", name)
				}
				continue
			}
			if len(res.Rows) != len(ref) || (len(ref) > 0 && !reflect.DeepEqual(res.Rows, ref)) {
				t.Errorf("%s under %s diverges from reference: got %d rows, want %d",
					name, cfgName, len(res.Rows), len(ref))
			}
		}
	}
}

func TestWorkloadSpecsCoverAllQueries(t *testing.T) {
	w := Workload()
	if len(w) != 22 {
		t.Fatalf("workload has %d queries", len(w))
	}
	seen := map[string]bool{}
	for _, q := range w {
		seen[q.Name] = true
		if len(q.Joins) == 0 && len(q.Tables) == 0 {
			t.Errorf("%s has no tables", q.Name)
		}
	}
	for _, n := range QueryNames {
		if !seen[n] {
			t.Errorf("missing workload spec for %s", n)
		}
	}
}

func TestWorkloadWithout(t *testing.T) {
	w := design.FilterWorkload(Workload(), SmallTables())
	for _, q := range w {
		for _, e := range q.Joins {
			for _, tbl := range []string{e.TableA, e.TableB} {
				for _, small := range SmallTables() {
					if tbl == small {
						t.Fatalf("%s still references %s", q.Name, small)
					}
				}
			}
		}
	}
}

func TestWDOnTPCHWorkload(t *testing.T) {
	d := gen(t)
	w := design.FilterWorkload(Workload(), SmallTables())
	wd, err := design.WorkloadDriven(d.DB, w, design.WDOptions{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The paper merges the 22 queries into 4 components after phase 1 and
	// 2 after the cost-based phase; exact counts depend on the query
	// encodings, but substantial merging must happen.
	if wd.UnitsAfterPhase1 >= wd.UnitsBeforeMerge {
		t.Fatalf("phase 1 should merge: %d → %d", wd.UnitsBeforeMerge, wd.UnitsAfterPhase1)
	}
	if len(wd.Groups) > 4 {
		t.Fatalf("final groups = %d, want ≤ 4", len(wd.Groups))
	}
	// Every query must be routed somewhere.
	for _, q := range w {
		if len(wd.GroupsFor(q.Name)) == 0 {
			t.Errorf("query %s not routed", q.Name)
		}
	}
}
