package main

import (
	"encoding/json"
	"os"
	"testing"
)

func sameDefs(t *testing.T, key string, inJSON, inCode []metricDef) {
	t.Helper()
	if len(inJSON) != len(inCode) {
		t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", key, len(inJSON), len(inCode))
	}
	for i := 0; i < min(len(inJSON), len(inCode)); i++ {
		if inJSON[i] != inCode[i] {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, code has %+v", key, i, inJSON[i], inCode[i])
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps ../BENCHMARK.json, which the
// driver reads, identical to the lists the program prints from.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	sameDefs(t, "end_to_end", doc.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
