package lint

import (
	"go/token"
	"strings"
	"testing"
	"time"
)

func sampleDiags() []Diagnostic {
	return []Diagnostic{
		{
			Pos:      token.Position{Filename: "internal/engine/engine.go", Line: 61, Column: 4},
			Analyzer: "ctxthread",
			Message:  "context.Background in ship detaches per-partition work from the query context; thread ctx from the caller",
		},
		{
			Pos:      token.Position{Filename: "internal/table/table.go", Line: 9, Column: 2},
			Analyzer: "publishorder",
			Message:  "mutation of version-visible state after the atomic epoch publish",
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
      "line": 61,
      "column": 4,
      "analyzer": "ctxthread",
      "message": "context.Background in ship detaches per-partition work from the query context; thread ctx from the caller"
    },
    {
      "file": "internal/table/table.go",
      "line": 9,
      "column": 2,
      "analyzer": "publishorder",
      "message": "mutation of version-visible state after the atomic epoch publish"
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
		"publishorder":   1512600 * time.Nanosecond, // 1.5126ms: rounds to 1.513
		"invariantpanic": 40 * time.Microsecond,
	}
	if err := WriteJSON(&sb, nil, timings); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "findings": [],
  "timings_ms": {
    "invariantpanic": 0.04,
    "publishorder": 1.513
  }
}
`
	if sb.String() != want {
		t.Errorf("JSON timings mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}
