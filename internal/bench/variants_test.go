package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pref/internal/design"
	"pref/internal/partition"
	"pref/internal/table"
	"pref/internal/tpcds"
	"pref/internal/tpch"
)

// TestWDRoutesToItsGroup: every query of a WD variant runs on a group built
// from a merged configuration the design routed it to, whatever the number
// of groups. TPC-DS's WD merges more than ten, past the point where group
// names stop sorting in index order ("WD-g10" < "WD-g2").
func TestWDRoutesToItsGroup(t *testing.T) {
	p := smallParams()
	p.Parts = 10
	th := tpch.Generate(p.SF, p.Seed)
	ds := tpcds.Generate(p.DSSF, p.Seed)
	dsSmall := tpcds.SmallTables()
	for _, tc := range []struct {
		name      string
		db        *table.Database
		small     []string
		workload  []design.Query
		minGroups int
	}{
		{"TPC-H", th.DB, tpch.SmallTables(), design.FilterWorkload(tpch.Workload(), tpch.SmallTables()), 2},
		{"TPC-DS", ds.DB, dsSmall, design.FilterWorkload(tpcds.Workload(), dsSmall), 11},
	} {
		wd, err := design.WorkloadDriven(tc.db.Without(tc.small...), tc.workload, design.WDOptions{Parts: p.Parts})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(wd.Groups) < tc.minGroups {
			t.Fatalf("%s: WD merged %d groups; the check needs at least %d", tc.name, len(wd.Groups), tc.minGroups)
		}
		v := wdVariant("WD", wd, tc.small, p.Parts)
		// serving maps each query to the configurations of the groups whose
		// Queries list it: one per join component it has.
		serving := map[string]map[string]bool{}
		for _, g := range wd.Groups {
			cfg := withReplicated(g.PC.Config, tc.small).String()
			for _, q := range g.Queries {
				if serving[q] == nil {
					serving[q] = map[string]bool{}
				}
				serving[q][cfg] = true
			}
		}
		if len(serving) == 0 {
			t.Fatalf("%s: the design routed no query", tc.name)
		}
		for q, cfgs := range serving {
			if g := v.Groups[v.RouteFor(q)]; !cfgs[g.Config.String()] {
				t.Errorf("%s: %s routes to %s, which no group serving it was built from", tc.name, q, g.Name)
			}
		}
	}
}

// TestConfigVariant: the -config loader reads a JSON configuration, rejects
// one the schema does not validate, and wraps a valid one as a one-group
// variant whose configuration carries the file's partition count.
func TestConfigVariant(t *testing.T) {
	s := tpch.Schema()
	write := func(name string, cfg *partition.Config) string {
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.json", PaperSDConfig(4))
	v, err := ConfigVariant(good, s)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "custom:"+good || len(v.Groups) != 1 || v.Groups[0].Config.NumPartitions != 4 {
		t.Fatalf("variant %s: %d groups, %d partitions", v.Name, len(v.Groups), v.Groups[0].Config.NumPartitions)
	}
	bad := write("bad.json", partition.NewConfig(4).SetHash("lineitem", "nosuchcol"))
	if _, err := ConfigVariant(bad, s); err == nil {
		t.Fatal("a configuration naming an unknown column loaded")
	}
	if _, err := ConfigVariant(filepath.Join(t.TempDir(), "missing.json"), s); err == nil {
		t.Fatal("a missing file loaded")
	}
}
