package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
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
	opt := tinyOptions(f)
	f.Fuzz(func(t *testing.T, spec string, shed float64) {
		tcs, err := parseTenants(spec)
		if err != nil {
			return
		}
		opt := opt
		opt.Tenants, opt.ShedThreshold = tcs, shed
		srv, err := serve.NewServer(opt)
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

// tinyOptions serves one prepared query, "scan", over an eight-row table
// hashed on two partitions, to one tenant, "t".
func tinyOptions(tb testing.TB) serve.Options {
	tb.Helper()
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
		tb.Fatal(err)
	}
	return serve.Options{
		PDB:     pdb,
		Config:  cfg,
		Queries: map[string]func() plan.Node{"scan": func() plan.Node { return plan.Scan("t", "t") }},
		Tenants: []serve.TenantConfig{{Name: "t", Weight: 1}},
	}
}

// tinyServer starts a server over tinyOptions and closes it when the test
// ends.
func tinyServer(tb testing.TB) *serve.Server {
	tb.Helper()
	srv, err := serve.NewServer(tinyOptions(tb))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close(context.Background()) })
	return srv
}

// query runs handleQuery on one request with a one-second operator
// deadline.
func query(srv *serve.Server, tenant, q, timeout string) *httptest.ResponseRecorder {
	v := url.Values{"tenant": {tenant}, "q": {q}}
	if timeout != "" {
		v.Set("timeout", timeout)
	}
	rec := httptest.NewRecorder()
	handleQuery(srv, time.Second, rec, httptest.NewRequest(http.MethodGet, "/query?"+v.Encode(), nil))
	return rec
}

func TestHandleQuery(t *testing.T) {
	srv := tinyServer(t)
	rec := query(srv, "t", "scan", "5s")
	header, _, _ := strings.Cut(rec.Body.String(), "\n")
	var h struct{ Schema []string }
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/x-ndjson" ||
		json.Unmarshal([]byte(header), &h) != nil || len(h.Schema) != 1 {
		t.Fatalf("good query: %d %q, header line %q", rec.Code, rec.Header().Get("Content-Type"), header)
	}
	if rows := strings.Count(rec.Body.String(), "\n") - 1; rows != 8 {
		t.Errorf("good query streamed %d rows, want 8", rows)
	}
	for _, tc := range []struct {
		tenant, q, timeout string
		want               int
	}{
		{"t", "nope", "", http.StatusNotFound},
		{"nobody", "scan", "", http.StatusBadRequest},
		{"t", "scan", "soon", http.StatusBadRequest},
		{"t", "scan", "0s", http.StatusBadRequest},
		{"t", "scan", "-1s", http.StatusBadRequest},
	} {
		if rec := query(srv, tc.tenant, tc.q, tc.timeout); rec.Code != tc.want {
			t.Errorf("tenant=%q q=%q timeout=%q: status %d, want %d (%s)", tc.tenant, tc.q, tc.timeout, rec.Code, tc.want, rec.Body)
		}
	}
}

// FuzzHandleQuery: whatever a client sends as tenant, query and timeout,
// the reply carries one of the serving layer's statuses and every body line
// is one JSON value.
func FuzzHandleQuery(f *testing.F) {
	for _, seed := range [][3]string{
		{"t", "scan", "5s"},
		{"t", "scan", ""},
		{"t", "nope", "5s"},
		{"nobody", "scan", "5s"},
		{"t", "scan", "0s"},
		{"t", "scan", "-1s"},
		{"t", "scan", "1ns"},
		{"t", "scan", "9223372036854775807ns"},
		{"", "", "x"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	srv := tinyServer(f)
	ok := map[int]bool{200: true, 400: true, 404: true, 429: true, 503: true, 504: true}
	f.Fuzz(func(t *testing.T, tenant, q, timeout string) {
		rec := query(srv, tenant, q, timeout)
		if !ok[rec.Code] {
			t.Fatalf("tenant=%q q=%q timeout=%q: status %d (%s)", tenant, q, timeout, rec.Code, rec.Body)
		}
		for _, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
			if !json.Valid([]byte(line)) {
				t.Fatalf("tenant=%q q=%q timeout=%q: body line %q is not JSON", tenant, q, timeout, line)
			}
		}
	})
}
