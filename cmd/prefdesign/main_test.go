package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pref/internal/design"
	"pref/internal/partition"
	"pref/internal/testutil"
	"pref/internal/tpch"
)

// TestRunRejectsSampleRateOutOfRange: a -sample outside [0, 1] is an error
// (main exits 1 on it) for both algorithms, not a silent exact design.
func TestRunRejectsSampleRateOutOfRange(t *testing.T) {
	for _, algo := range []string{"sd", "wd"} {
		for _, rate := range []float64{7, -0.5} {
			var err error
			out := testutil.CaptureStdout(t, func() error {
				err = run("tpch", algo, 4, 0.002, 1, 42, rate, false, false, "")
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "SampleRate") {
				t.Errorf("-algo %s -sample %v: err = %v, want a SampleRate error\n%s", algo, rate, err, out)
			}
			if strings.Contains(out, "data-redundancy") {
				t.Errorf("-algo %s -sample %v printed a design:\n%s", algo, rate, out)
			}
		}
	}
}

// TestRunPrintsDesign: an in-range rate designs and prints the estimate,
// and SD applies the design and prints the actual redundancy too.
func TestRunPrintsDesign(t *testing.T) {
	for _, tc := range []struct {
		algo string
		rate float64
		want []string
	}{
		{"sd", 1, []string{"schema-driven design", "estimated data-redundancy DR", "actual data-redundancy DR"}},
		{"sd", 0.5, []string{"schema-driven design", "estimated data-redundancy DR"}},
		{"wd", 1, []string{"workload-driven design", "estimated global data-redundancy DR"}},
	} {
		out := testutil.CaptureStdout(t, func() error {
			return run("tpch", tc.algo, 4, 0.002, 1, 42, tc.rate, false, false, "")
		})
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("-algo %s -sample %v: output lacks %q:\n%s", tc.algo, tc.rate, w, out)
			}
		}
	}
}

// TestRunRejectsBadScale: an -sf or -dssf that is not a finite number
// above 0 is an error (main exits 1 on it) whichever benchmark is asked
// for, and nothing is designed.
func TestRunRejectsBadScale(t *testing.T) {
	for _, bad := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		for _, tc := range []struct {
			flag     string
			sf, dssf float64
		}{{"-sf", bad, 1}, {"-dssf", 0.002, bad}} {
			var err error
			out := testutil.CaptureStdout(t, func() error {
				err = run("tpch", "sd", 4, tc.sf, tc.dssf, 42, 1, false, false, "")
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("%s %v: err = %v, want a %s error", tc.flag, bad, err, tc.flag)
			}
			if out != "" {
				t.Errorf("%s %v printed:\n%s", tc.flag, bad, out)
			}
		}
	}
}

// TestRunWDNoRedundancy: -algo wd -no-redundancy bars every designed
// table from redundancy in each WD group — its estimated size in the
// written configuration is its row count, to within the search's 1e-6 —
// so the design differs from the unconstrained one.
func TestRunWDNoRedundancy(t *testing.T) {
	const sf, parts = 0.01, 4
	designs := map[bool]string{}
	var constrained []*partition.Config
	for _, noRed := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "wd.json")
		out := testutil.CaptureStdout(t, func() error {
			return run("tpch", "wd", parts, sf, 1, 42, 1, noRed, false, path)
		})
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		designs[noRed] = strings.ReplaceAll(out, path, "") + string(data)
		if noRed {
			if err := json.Unmarshal(data, &constrained); err != nil {
				t.Fatal(err)
			}
		}
	}
	if designs[false] == designs[true] {
		t.Fatalf("-no-redundancy printed and wrote the unconstrained design:\n%s", designs[true])
	}
	db := tpch.Generate(sf, 42).DB.Without(tpch.SmallTables()...)
	sizes := design.SizesOf(db)
	hp := design.NewHistProvider(db, 0, 0)
	for gi, cfg := range constrained {
		est, err := design.EstimateConfig(cfg, sizes, hp)
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range cfg.Names() {
			if rows := float64(sizes[tbl]); math.Abs(est.PerTable[tbl]-rows) > rows*1e-6 {
				t.Errorf("group %d: %s is estimated at %v rows, its row count is %v", gi, tbl, est.PerTable[tbl], rows)
			}
		}
	}
}
