package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pref/internal/bench"
	"pref/internal/plan"
	"pref/internal/serve"
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
		l, err := load("SD", path, 0.001, 10, 42)
		if err != nil {
			return err
		}
		return l.run("Q3", true, false, 0, false, "", 0)
	})
	if !strings.Contains(out, "4 partitions,") {
		t.Fatalf("header does not report the loaded design's 4 partitions:\n%s", out)
	}
}

// TestServedPlanIsExplainedPlan: for every TPC-H query on AllHashed and SD,
// the plan prefquery prints is the plan a server over separately generated
// copies of the same data runs — both rewrite with statistics gathered from
// the partitioned database. Each variant is loaded once for its 22 queries.
func TestServedPlanIsExplainedPlan(t *testing.T) {
	const sf, parts, seed = 0.01, 4, 42
	d := tpch.Generate(sf, seed)
	queries := make(map[string]func() plan.Node, len(tpch.QueryNames))
	for _, q := range tpch.QueryNames {
		q := q
		queries[q] = func() plan.Node { return d.Query(q) }
	}
	for _, variant := range []string{"AllHashed", "SD"} {
		v, err := bench.TPCHVariant(d, parts, variant)
		if err != nil {
			t.Fatal(err)
		}
		m, err := bench.Materialize(v, d.DB)
		if err != nil {
			t.Fatal(err)
		}
		s, err := serve.NewServer(serve.Options{
			PDB: m.PDBs[0], Config: v.Groups[0].Config, Queries: queries,
			Tenants: []serve.TenantConfig{{Name: "t", Weight: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := load(variant, "", sf, parts, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range tpch.QueryNames {
			out := testutil.CaptureStdout(t, func() error {
				return l.run(q, true, false, 0, false, "", 0)
			})
			rw, err := s.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := "physical plan:\n" + rw.Explain(); !strings.HasSuffix(out, want) {
				t.Errorf("%s/%s: prefquery explains\n%s\nthe server runs\n%s", variant, q, out, want)
			}
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadRejectsBadScale: an -sf that is not a finite number above 0 is an
// error (main exits 1 on it), not a silent run at the generator's
// smallest scale.
func TestLoadRejectsBadScale(t *testing.T) {
	for _, sf := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		if _, err := load("SD", "", sf, 4, 42); err == nil || !strings.Contains(err.Error(), "-sf") {
			t.Errorf("-sf %v: err = %v, want an -sf error", sf, err)
		}
	}
}

// TestReadmePlanIsExplained: the README's "plan alone" block is what
// `prefquery -q Q3 -variant AllHashed -explain-only` prints at its default
// scale, seed and partition count, line for line, so a rewrite change that
// moves that plan fails here until the block is regenerated.
func TestReadmePlanIsExplained(t *testing.T) {
	const cmd = "$ go run ./cmd/prefquery -q Q3 -variant AllHashed -explain-only"
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), cmd+"\n")
	if !ok {
		t.Fatalf("README.md has no block starting %q", cmd)
	}
	block, _, ok = strings.Cut(block, "```")
	if !ok {
		t.Fatalf("README.md's %q block does not end", cmd)
	}
	out := testutil.CaptureStdout(t, func() error {
		l, err := load("AllHashed", "", 0.01, 10, 42)
		if err != nil {
			return err
		}
		return l.run("Q3", true, false, 0, false, "", 0)
	})
	got, want := strings.Split(out, "\n"), strings.Split(block, "\n")
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("README.md line %d of the block reads\n%s\nprefquery prints\n%s\nregenerate the block from:\n%s", i+1, w, g, out)
		}
	}
}
