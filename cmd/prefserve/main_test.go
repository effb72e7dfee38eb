package main

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/serve"
	"pref/internal/table"
	"pref/internal/value"
)

func TestParseTenants(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []serve.TenantConfig // nil = rejected
	}{
		{"gold:4,silver:2,bronze:1:200:20", []serve.TenantConfig{
			{Name: "gold", Weight: 4},
			{Name: "silver", Weight: 2},
			{Name: "bronze", Weight: 1, Rate: 200, Burst: 20},
		}},
		{"a", []serve.TenantConfig{{Name: "a"}}},
		{" a:1 , b:2:3 ", []serve.TenantConfig{{Name: "a", Weight: 1}, {Name: "b", Weight: 2, Rate: 3}}},
		{"a:1:2:3:4", nil}, // a fifth field is an error, not ignored
		{"a:1,:2", nil},    // empty name
		{"a:x", nil},       // not a number
		{"", nil},
	} {
		got, err := parseTenants(tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseTenants(%q) = %+v, want an error", tc.spec, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseTenants(%q) = %+v, %v; want %+v", tc.spec, got, err, tc.want)
		}
	}
}

// TestRunRejectsBadScale: an -sf that is not a finite number above 0 is an
// error (main exits 1 on it) before any data is generated; the address
// cannot be listened on, so a run that got past the check fails otherwise.
func TestRunRejectsBadScale(t *testing.T) {
	for _, sf := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		err := run("127.0.0.1:-1", "SD", sf, 4, 42, "t:1", 1, time.Second, 1.5, 1, 0, time.Second)
		if err == nil || !strings.Contains(err.Error(), "-sf") {
			t.Errorf("-sf %v: err = %v, want an -sf error", sf, err)
		}
	}
}

// TestRunRejectsBadKnobs: a tenant whose token bucket holds less than one
// query under a rate limit, and a NaN shed threshold, are errors (main
// exits 1 on them) raised by serve.NewServer before anything listens; the
// address cannot be listened on, so a run that got past them fails
// otherwise.
func TestRunRejectsBadKnobs(t *testing.T) {
	for _, tc := range []struct {
		tenants string
		shed    float64
		want    string
	}{
		{"gold:1:5:0.5", 1.5, "Burst"},
		{"gold:1", math.NaN(), "ShedThreshold"},
	} {
		err := run("127.0.0.1:-1", "SD", 0.001, 2, 42, tc.tenants, 1, time.Second, tc.shed, 1, 0, time.Second)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-tenants %s -shed %v: err = %v, want one naming %s", tc.tenants, tc.shed, err, tc.want)
		}
	}
}

// FuzzParseTenants: a -tenants spec and a -shed value go through
// parseTenants and serve.NewServer's validation without panicking, and a
// spec the server accepts names each tenant once, with finite knobs and a
// bucket that can hold a query.
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []struct {
		spec string
		shed float64
	}{
		{"gold:4,silver:2,bronze:1:200:20", 1.5},
		{"gold:1:5:0.5", 1.5},  // a bucket below one token admits nothing
		{"gold:1", math.NaN()}, // a NaN threshold sheds everything
		{"gold:1", math.Inf(1)},
		{"a:1,a:2", 1.5},
		{"a:NaN", 0},
		{"a:1:Inf", -1},
		{"a:1:2:3:4", 1.5},
		{",", 1.5},
		{"a:-1:-2:0", 1.5},
	} {
		f.Add(seed.spec, seed.shed)
	}
	s := catalog.NewSchema("fz")
	s.MustAddTable(catalog.MustTable("t", []catalog.Column{{Name: "k", Kind: value.Int}}, "k"))
	db := table.NewDatabase(s)
	for k := int64(0); k < 8; k++ {
		db.Tables["t"].MustAppend(value.Tuple{k})
	}
	cfg := partition.NewConfig(2)
	cfg.SetHash("t", "k")
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		f.Fatal(err)
	}
	queries := map[string]func() plan.Node{"scan": func() plan.Node { return plan.Scan("t", "t") }}
	f.Fuzz(func(t *testing.T, spec string, shed float64) {
		tcs, err := parseTenants(spec)
		if err != nil {
			return
		}
		srv, err := serve.NewServer(serve.Options{PDB: pdb, Config: cfg, Queries: queries, Tenants: tcs, ShedThreshold: shed})
		if err != nil {
			return
		}
		srv.Close(context.Background())
		if math.IsNaN(shed) {
			t.Errorf("accepted shed threshold NaN")
		}
		seen := map[string]bool{}
		for _, tc := range tcs {
			if seen[tc.Name] {
				t.Errorf("spec %q: accepted tenant %q twice", spec, tc.Name)
			}
			seen[tc.Name] = true
			for _, v := range []float64{tc.Weight, tc.Rate, tc.Burst} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("spec %q: accepted tenant %+v with a non-finite knob", spec, tc)
				}
			}
			if tc.Rate > 0 && tc.Burst > 0 && tc.Burst < 1 {
				t.Errorf("spec %q: accepted tenant %+v, whose bucket never holds a query", spec, tc)
			}
		}
	})
}
