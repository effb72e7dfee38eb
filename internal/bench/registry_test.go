package bench

import (
	"reflect"
	"strings"
	"testing"

	"pref/internal/tpch"
)

// TPCHVariant must build, for every table name, exactly the variant
// TPCHVariants hands out under that name: the binaries that serve one
// variant and the experiments that sweep all seven see the same designs.
func TestTPCHVariantMatchesVariantSet(t *testing.T) {
	p := smallParams()
	th := tpch.Generate(p.SF, p.Seed)
	vs, err := TPCHVariants(th, p.Parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != len(tpchVariantTable) {
		t.Fatalf("TPCHVariants built %d variants, table has %d", len(vs), len(tpchVariantTable))
	}
	for _, c := range tpchVariantTable {
		one, err := TPCHVariant(th, p.Parts, c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		all := vs[c.name]
		if all == nil {
			t.Fatalf("%s missing from TPCHVariants", c.name)
		}
		if one.Name != c.name || len(one.Groups) != len(all.Groups) {
			t.Fatalf("%s: built %q with %d groups, variant set has %d", c.name, one.Name, len(one.Groups), len(all.Groups))
		}
		for gi := range one.Groups {
			if got, want := one.Groups[gi].Config.String(), all.Groups[gi].Config.String(); got != want {
				t.Errorf("%s group %d: config differs\nTPCHVariant:\n%s\nTPCHVariants:\n%s", c.name, gi, got, want)
			}
		}
		if !reflect.DeepEqual(one.Route, all.Route) {
			t.Errorf("%s: route %v, variant set has %v", c.name, one.Route, all.Route)
		}
	}

	_, err = TPCHVariant(th, p.Parts, "SD-typo")
	if err == nil {
		t.Fatal("unknown variant name must error")
	}
	for _, c := range tpchVariantTable {
		if !strings.Contains(err.Error(), c.name) {
			t.Errorf("unknown-variant error %q does not list %s", err, c.name)
		}
	}
}

// The registry is the one list behind prefbench -list, -exp all and the
// id check: ids are unique and resolve, every driver runs (at micro scale)
// and reports under its registry id — the name of its -json artifact —
// and the retired experiments no longer resolve: the speed ones (speed is
// benchmark/'s job) and soak (its legs are oracle-checked by
// TestBreakerProbeRepairRebuild and TestChaosSoak).
func TestExperimentRegistry(t *testing.T) {
	p := DefaultParams()
	p.SF, p.DSSF, p.Parts = 0.001, 0.1, 3
	if len(Experiments) != 19 {
		t.Errorf("%d experiments registered, want 19", len(Experiments))
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Errorf("experiment id %q registered twice", e.ID)
		}
		seen[e.ID] = true
		if got, ok := LookupExperiment(e.ID); !ok || got.ID != e.ID {
			t.Errorf("LookupExperiment(%q) = %q, %v", e.ID, got.ID, ok)
		}
		if testing.Short() {
			continue
		}
		r, err := e.Run(p)
		if err != nil {
			t.Errorf("experiment %q: %v", e.ID, err)
		} else if r.ID != e.ID || len(r.Rows) == 0 {
			t.Errorf("experiment %q reported as %q with %d rows", e.ID, r.ID, len(r.Rows))
		}
	}
	for _, id := range []string{"serve", "vec", "mixed", "soak", ""} {
		if _, ok := LookupExperiment(id); ok {
			t.Errorf("LookupExperiment(%q) resolved; want unknown experiment", id)
		}
	}
}
