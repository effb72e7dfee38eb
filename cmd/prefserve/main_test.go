package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"pref/internal/serve"
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
