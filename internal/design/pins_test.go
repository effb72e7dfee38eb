package design_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"pref/internal/design"
	"pref/internal/table"
	"pref/internal/tpcds"
	"pref/internal/tpch"
)

// designPins are the SD and WD designs of prefdesign's defaults at four
// partitions: TPC-H at sf 0.01 and TPC-DS at scale 1, seed 42, small
// tables replicated, and SD once more from 10 % sampled histograms. Each
// is one line: the FNV-1a 64 digest of its configurations' text and the
// estimated DR to 17 significant digits. The join-key histograms feed
// both, so a change in how keys are counted or matched shows here.
var designPins = map[string]string{
	"tpch/sd":      "config=335e26582c926ec1 DR=0.28803874008125319",
	"tpch/sd@0.1":  "config=335e26582c926ec1 DR=0.28816797238503589",
	"tpch/wd":      "config=6e15cefaf0790c2d DR=0.405534269155851",
	"tpcds/sd":     "config=fe03914f59347839 DR=0.1200549404812421",
	"tpcds/sd@0.1": "config=fe03914f59347839 DR=0.11815256788345807",
	"tpcds/wd":     "config=02260cf6149fe8a5 DR=3.7959804947275986",
}

func TestDesignsPinned(t *testing.T) {
	const parts = 4
	h := tpch.Generate(0.01, 42)
	ds := tpcds.Generate(1.0, 42)
	for _, b := range []struct {
		name  string
		db    *table.Database
		small []string
		wl    []design.Query
	}{
		{"tpch", h.DB, tpch.SmallTables(), tpch.Workload()},
		{"tpcds", ds.DB, tpcds.SmallTables(), tpcds.Workload()},
	} {
		db := b.db.Without(b.small...)
		sd, err := design.SchemaDriven(db, design.SDOptions{Parts: parts})
		if err != nil {
			t.Fatal(err)
		}
		sampled, err := design.SchemaDriven(db, design.SDOptions{Parts: parts, SampleRate: 0.1, SampleSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		wd, err := design.WorkloadDriven(db, design.FilterWorkload(b.wl, b.small), design.WDOptions{Parts: parts})
		if err != nil {
			t.Fatal(err)
		}
		wdDR, err := wd.EstimatedDR(design.SizesOf(db))
		if err != nil {
			t.Fatal(err)
		}
		var groups []string
		for _, g := range wd.Groups {
			groups = append(groups, g.PC.Config.String())
		}
		for algo, got := range map[string]string{
			"sd":     pinLine(sd.Config.String(), sd.Est.DR()),
			"sd@0.1": pinLine(sampled.Config.String(), sampled.Est.DR()),
			"wd":     pinLine(strings.Join(groups, "\n"), wdDR),
		} {
			name := b.name + "/" + algo
			if want := designPins[name]; got != want {
				t.Errorf("%s design = %s, want %s", name, got, want)
			}
		}
	}
}

func pinLine(config string, dr float64) string {
	h := fnv.New64a()
	h.Write([]byte(config))
	return fmt.Sprintf("config=%016x DR=%.17g", h.Sum64(), dr)
}
