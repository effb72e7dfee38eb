package pref_test

import (
	"testing"

	"pref"
	"pref/internal/bench"
)

// TestQuickstart exercises the documented public-API flow end to end.
func TestQuickstart(t *testing.T) {
	db := pref.GenerateTPCH(0.002, 42)
	d, err := pref.SchemaDriven(db.DB.Without("nation", "region", "supplier"), pref.SDOptions{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Config.Clone()
	for _, tbl := range []string{"nation", "region", "supplier"} {
		cfg.Set(&pref.TableScheme{Table: tbl, Method: pref.Replicated})
	}
	pdb, err := pref.Apply(db.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pref.Run(db.Query("Q3"), db.DB.Schema, cfg, pdb)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("Q3 returned no rows")
	}
	if d.DL <= 0 || d.DL > 1 {
		t.Fatalf("DL = %v", d.DL)
	}
}

// TestHandBuiltSchema drives the facade with a user-defined schema,
// manual PREF config, a query, and bulk loading.
func TestHandBuiltSchema(t *testing.T) {
	s := pref.NewSchema("shop")
	s.MustAddTable(pref.MustTable("users",
		[]pref.Column{{Name: "uid", Kind: pref.Int}, {Name: "name", Kind: pref.Str}}, "uid"))
	s.MustAddTable(pref.MustTable("orders",
		[]pref.Column{{Name: "oid", Kind: pref.Int}, {Name: "uid", Kind: pref.Int}, {Name: "amount", Kind: pref.Money}}, "oid"))
	s.MustAddFK(pref.ForeignKey{
		Name: "fk", FromTable: "orders", FromCols: []string{"uid"},
		ToTable: "users", ToCols: []string{"uid"}, ToIsUnique: true,
	})

	db := pref.NewDatabase(s)
	dict := s.Table("users").Dict("name")
	for i := int64(0); i < 40; i++ {
		db.Tables["users"].MustAppend(pref.Tuple{i, dict.Code("user")})
	}
	for i := int64(0); i < 200; i++ {
		db.Tables["orders"].MustAppend(pref.Tuple{i, i % 40, pref.FromMoney(float64(i))})
	}

	cfg := pref.NewConfig(4)
	cfg.SetHash("users", "uid")
	cfg.SetPref("orders", "users", []string{"uid"}, []string{"uid"})
	pdb, err := pref.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}

	q := pref.Aggregate(
		pref.Join(pref.Scan("users", "u"), pref.Scan("orders", "o"),
			pref.Inner, []string{"u.uid"}, []string{"o.uid"}),
		[]string{"u.uid"},
		pref.Sum(pref.Col("o.amount"), "total"),
	)
	res, err := pref.Run(q, s, cfg, pdb)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 40 {
		t.Fatalf("groups = %d, want 40", len(res.Rows))
	}
	// PREF co-location: the join itself ships nothing; only the final
	// aggregation shuffles nothing either (u.uid is the hash column).
	if res.Stats.Repartitions != 0 {
		t.Fatalf("repartitions = %d, want 0 (hash-aligned group-by)", res.Stats.Repartitions)
	}

	// Incremental load keeps working.
	loader := pref.NewLoader(pdb, cfg)
	if err := loader.Insert("orders", pref.Tuple{999, 7, pref.FromMoney(12.5)}); err != nil {
		t.Fatal(err)
	}
	if pdb.Tables["orders"].OriginalRows != 201 {
		t.Fatalf("rows after insert = %d", pdb.Tables["orders"].OriginalRows)
	}
}

func TestWorkloadDrivenFacade(t *testing.T) {
	db := pref.GenerateTPCH(0.002, 7)
	w := pref.FilterWorkload(pref.TPCHWorkload(), []string{"nation", "region", "supplier"})
	wd, err := pref.WorkloadDriven(db.DB.Without("nation", "region", "supplier"), w, pref.WDOptions{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(wd.Groups) == 0 {
		t.Fatal("no groups")
	}
	for _, name := range pref.TPCHQueryNames() {
		if len(wd.GroupsFor(name)) == 0 {
			t.Errorf("query %s unrouted", name)
		}
	}
}

// TestRunPricesItsRewrite: Run and Explain execute the plan every binary
// runs, the rewrite priced with the statistics of the database it runs on.
// On these designs the priced plan ships far less than the unpriced one
// (at sf 0.01 on 4 nodes: AllHashed Q7 broadcasts its small inputs, SD Q17
// sums lineitem in place), so the two are told apart by what they ship.
func TestRunPricesItsRewrite(t *testing.T) {
	db := pref.GenerateTPCH(0.01, 42)
	for _, c := range []struct{ variant, query string }{{"AllHashed", "Q7"}, {"SD", "Q17"}} {
		v, err := bench.TPCHVariant(db, 4, c.variant)
		if err != nil {
			t.Fatal(err)
		}
		cfg := v.Groups[v.RouteFor(c.query)].Config
		pdb, err := pref.Apply(db.DB, cfg)
		if err != nil {
			t.Fatal(err)
		}
		q, s := db.Query(c.query), db.DB.Schema
		shipped := func(opt pref.PlanOptions) pref.Stats {
			rw, err := pref.Rewrite(q, s, cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pref.Execute(rw, pdb)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}
		priced, unpriced := shipped(pref.PlanOptions{Stats: pref.GatherStats(pdb)}), shipped(pref.PlanOptions{})
		if priced.BytesShipped >= unpriced.BytesShipped {
			t.Fatalf("%s %s: fixture drift: priced plan ships %d B, unpriced %d B", c.variant, c.query,
				priced.BytesShipped, unpriced.BytesShipped)
		}
		run, err := pref.Run(q, s, cfg, pdb)
		if err != nil {
			t.Fatal(err)
		}
		explained, err := pref.Explain(q, s, cfg, pdb)
		if err != nil {
			t.Fatal(err)
		}
		if run.Stats != priced || explained.Stats != priced {
			t.Errorf("%s %s: Run ships %d B, Explain %d B; the priced rewrite %d B (unpriced %d B)", c.variant, c.query,
				run.Stats.BytesShipped, explained.Stats.BytesShipped, priced.BytesShipped, unpriced.BytesShipped)
		}
	}
}
