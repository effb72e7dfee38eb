package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs all four workloads end to end, measured and traced, at
// sf 0.002 with half-second windows (eight one-second windows alone would
// use most of the ten seconds the package may add to tier 1), and checks that every declared metric
// is printed with its unit and every reply matched the oracle.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds prefserve and runs eight short workloads")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "prefserve")
	build := exec.Command("go", "build", "-o", bin, "pref/cmd/prefserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build prefserve: %v\n%s", err, out)
	}
	cfg := config{seed: 42, window: 500 * time.Millisecond, scale: smokeScale, serverBin: bin, outDir: dir}
	t.Cleanup(killAllServers)

	for _, traced := range []bool{false, true} {
		defs := defsFor(traced)
		for _, wl := range workloads {
			start := time.Now()
			r, err := runOne(cfg, wl, traced)
			t.Logf("%s traced=%v: %v", wl.name, traced, time.Since(start).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, failed %d of %d\n%v", wl.name, traced, r.Correct, r.Failed, r.Attempted, r.Notes)
			}
			var buf bytes.Buffer
			if err := r.writeJSONLine(&buf, defs); err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
				t.Fatalf("%s: result line is not JSON: %v", wl.name, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: result line lacks a key or has %d metrics, want %d", wl.name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q, want %q", wl.name, traced, d.Name, m.Unit, d.Unit)
				}
				if !traced && ok && m.Value != nil && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", wl.name, d.Name, *m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.tracePath(wl)); err != nil {
					t.Errorf("%s: no span file: %v", wl.name, err)
				}
			}
		}
	}
}
