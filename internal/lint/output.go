package lint

import (
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"time"
)

// jsonFinding is one diagnostic in `preflint -json` output. The field set
// is the machine-readable contract: stable names, 1-based positions,
// slash-separated paths regardless of host OS.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	// TimingsMS maps analyzer name to total wall time in milliseconds
	// (rounded to microsecond precision), summed over every package the
	// run visited. Present only when the driver collected timings.
	TimingsMS map[string]float64 `json:"timings_ms,omitempty"`
}

// WriteJSON renders diagnostics as the preflint JSON report. The findings
// array is always present (possibly empty), so consumers can index into it
// without a nil check; the timings object appears only when a non-nil
// Timings sink was collected (encoding/json emits its keys sorted).
func WriteJSON(w io.Writer, diags []Diagnostic, timings Timings) error {
	rep := jsonReport{Findings: []jsonFinding{}}
	if timings != nil {
		rep.TimingsMS = make(map[string]float64, len(timings))
		for name, d := range timings {
			ms := float64(d) / float64(time.Millisecond)
			rep.TimingsMS[name] = math.Round(ms*1000) / 1000
		}
	}
	for _, d := range diags {
		rep.Findings = append(rep.Findings, jsonFinding{
			File:     filepath.ToSlash(d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
