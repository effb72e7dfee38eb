package lint

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"
	"time"
)

func sampleDiags() []Diagnostic {
	return []Diagnostic{
		{
			Pos:      token.Position{Filename: "internal/engine/engine.go", Line: 42, Column: 7},
			Analyzer: "partownership",
			Message:  "evalX indexes per-partition state out outside its own partition",
		},
		{
			Pos:      token.Position{Filename: "internal/trace/trace.go", Line: 9, Column: 2},
			Analyzer: "happensbefore",
			Message:  "plain access to field RowsIn",
		},
	}
}

func TestWriteJSONGolden(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, sampleDiags(), nil); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "findings": [
    {
      "file": "internal/engine/engine.go",
      "line": 42,
      "column": 7,
      "analyzer": "partownership",
      "message": "evalX indexes per-partition state out outside its own partition"
    },
    {
      "file": "internal/trace/trace.go",
      "line": 9,
      "column": 2,
      "analyzer": "happensbefore",
      "message": "plain access to field RowsIn"
    }
  ]
}
`
	if sb.String() != want {
		t.Errorf("JSON output mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, nil, nil); err != nil {
		t.Fatal(err)
	}
	const want = "{\n  \"findings\": []\n}\n"
	if sb.String() != want {
		t.Errorf("empty JSON report must keep the findings array:\ngot %q want %q", sb.String(), want)
	}
}

func TestWriteJSONTimings(t *testing.T) {
	var sb strings.Builder
	timings := Timings{
		"batchlifetime":  1512600 * time.Nanosecond, // 1.5126ms: rounds to 1.513
		"invariantpanic": 40 * time.Microsecond,
	}
	if err := WriteJSON(&sb, nil, timings); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "findings": [],
  "timings_ms": {
    "batchlifetime": 1.513,
    "invariantpanic": 0.04
  }
}
`
	if sb.String() != want {
		t.Errorf("JSON timings mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWriteSARIFGolden(t *testing.T) {
	var sb strings.Builder
	if err := WriteSARIF(&sb, Analyzers(), sampleDiags()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	// Structure: valid JSON with the fields GitHub code scanning reads.
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want exactly 1 run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "preflint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	// Every analyzer plus the synthetic directive rule is in the inventory.
	wantRules := len(Analyzers()) + 1
	if len(run.Tool.Driver.Rules) != wantRules {
		t.Errorf("rule inventory has %d entries, want %d", len(run.Tool.Driver.Rules), wantRules)
	}
	if len(run.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(run.Results))
	}
	r := run.Results[0]
	if r.RuleID != "partownership" || r.Level != "error" {
		t.Errorf("result 0: ruleId=%q level=%q", r.RuleID, r.Level)
	}
	loc := r.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/engine/engine.go" || loc.Region.StartLine != 42 {
		t.Errorf("result 0 location: uri=%q line=%d", loc.ArtifactLocation.URI, loc.Region.StartLine)
	}
}

func TestSARIFOverFixture(t *testing.T) {
	// End-to-end: real diagnostics from a real analyzer render into SARIF
	// with the analyzer as ruleId.
	const src = `package engine

func bad() {
	panic("boom")
}
`
	diags, err := RunSource("sarif_fixture.go", src, []*Analyzer{InvariantPanic})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic, got %v", diags)
	}
	var sb strings.Builder
	if err := WriteSARIF(&sb, Analyzers(), diags); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"ruleId": "invariantpanic"`) {
		t.Errorf("SARIF missing invariantpanic result:\n%s", sb.String())
	}
}
