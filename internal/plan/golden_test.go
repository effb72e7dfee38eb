package plan_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/value"
)

// The golden tests pin the exact rendering of rewritten physical plans —
// the operator String() forms and the recorded Dup/Part properties — for
// a fixed schema-driven design. Any change to the rewrite's output shape,
// node formatting, or property algebra shows up as a readable diff against
// testdata/*.golden. Regenerate deliberately with:
//
//	go test ./internal/plan -run TestGoldenPlans -update

var updateGolden = flag.Bool("update", false, "rewrite the golden plan files")

// goldenSchema is the same 4-table TPC-H-shaped catalog the checker tests
// use: a hash seed, a hash-equivalent PREF chain, a duplicate-carrying
// PREF chain, and a replicated dimension.
func goldenSchema(t *testing.T) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema("golden")
	s.MustAddTable(catalog.MustTable("lineitem", []catalog.Column{
		{Name: "l_orderkey", Kind: value.Int},
		{Name: "l_partkey", Kind: value.Int},
		{Name: "l_qty", Kind: value.Int},
	}, "l_orderkey", "l_partkey"))
	s.MustAddTable(catalog.MustTable("orders", []catalog.Column{
		{Name: "o_orderkey", Kind: value.Int},
		{Name: "o_custkey", Kind: value.Int},
		{Name: "o_total", Kind: value.Money},
	}, "o_orderkey"))
	s.MustAddTable(catalog.MustTable("customer", []catalog.Column{
		{Name: "c_custkey", Kind: value.Int},
		{Name: "c_name", Kind: value.Str},
		{Name: "c_nation", Kind: value.Int},
	}, "c_custkey"))
	s.MustAddTable(catalog.MustTable("nation", []catalog.Column{
		{Name: "n_nationkey", Kind: value.Int},
		{Name: "n_name", Kind: value.Str},
	}, "n_nationkey"))
	return s
}

func goldenSD(t *testing.T, sch *catalog.Schema) *partition.Config {
	t.Helper()
	cfg := partition.NewConfig(4)
	cfg.SetHash("lineitem", "l_orderkey")
	cfg.SetPref("orders", "lineitem", []string{"o_orderkey"}, []string{"l_orderkey"})
	cfg.SetPref("customer", "orders", []string{"c_custkey"}, []string{"o_custkey"})
	cfg.SetReplicated("nation")
	if err := cfg.Validate(sch); err != nil {
		t.Fatalf("fixture config invalid: %v", err)
	}
	return cfg
}

func TestGoldenPlans(t *testing.T) {
	sch := goldenSchema(t)
	cfg := goldenSD(t, sch)

	cases := []struct {
		name string
		root plan.Node
	}{
		{
			// PREF co-location case: the join is local, the dup-carrying
			// customer side is deduplicated before results leave the node.
			name: "join_pref",
			root: plan.Join(
				plan.Join(
					plan.Scan("customer", "c"), plan.Scan("orders", "o"),
					plan.Inner, []string{"c.c_custkey"}, []string{"o.o_custkey"}),
				plan.Scan("lineitem", "l"),
				plan.Inner, []string{"o.o_orderkey"}, []string{"l.l_orderkey"}),
		},
		{
			// Semi join against a dup-carrying right side exercises the
			// hasRef optimization path and the semi-specific properties.
			name: "semijoin_hasref",
			root: plan.Join(
				plan.Scan("orders", "o"), plan.Scan("customer", "c"),
				plan.Semi, []string{"o.o_custkey"}, []string{"c.c_custkey"}),
		},
		{
			// Misaligned grouping aggregates in two phases: a local dup-index
			// dedup, per-partition partial states, and a repartition of those
			// states (nothing left to dedup in transit) below the merge.
			name: "agg_repartition",
			root: plan.Aggregate(
				plan.Scan("customer", "c"), []string{"c.c_nation"},
				plan.Count("customers")),
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rw, err := plan.Rewrite(tc.root, sch, cfg, plan.Options{})
			if err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			got := "logical:\n" + plan.Format(tc.root) + "\nphysical:\n" + rw.Explain()
			path := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("plan rendering changed; run with -update if intentional.\n--- want\n%s--- got\n%s", want, got)
			}
		})
	}
}
