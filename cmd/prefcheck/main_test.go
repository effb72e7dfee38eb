package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pref/internal/bench"
	"pref/internal/testutil"
	"pref/internal/tpch"
)

// TestRunReportsLoadedPartitionCount: with -config the summary names the
// configuration's partition count, not the -parts flag's default.
func TestRunReportsLoadedPartitionCount(t *testing.T) {
	d := tpch.Generate(0.001, 42)
	v, err := bench.TPCHVariant(d, 4, "SD")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(v.Groups[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "four-partition.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out := testutil.CaptureStdout(t, func() error {
		return run("SD", path, "Q3", 0.001, 10, 42, false, false)
	})
	if !strings.Contains(out, "(4 partitions)") {
		t.Fatalf("summary does not report the loaded design's 4 partitions:\n%s", out)
	}
}

// TestRunRejectsBadScale: an -sf that is not a finite number above 0 is an
// error (main exits 1 on it), not a silent check at the generator's
// smallest scale.
func TestRunRejectsBadScale(t *testing.T) {
	for _, sf := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		var err error
		out := testutil.CaptureStdout(t, func() error {
			err = run("SD", "", "", sf, 4, 42, false, false)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "-sf") {
			t.Errorf("-sf %v: err = %v, want an -sf error", sf, err)
		}
		if out != "" {
			t.Errorf("-sf %v printed:\n%s", sf, out)
		}
	}
}
