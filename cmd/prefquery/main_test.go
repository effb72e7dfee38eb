package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pref/internal/bench"
	"pref/internal/testutil"
	"pref/internal/tpch"
)

// TestRunReportsLoadedPartitionCount: with -config the header names the
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
		return run("Q3", "SD", path, 0.001, 10, 42, true, false, 0, false, "", 0)
	})
	if !strings.Contains(out, "4 partitions,") {
		t.Fatalf("header does not report the loaded design's 4 partitions:\n%s", out)
	}
}
