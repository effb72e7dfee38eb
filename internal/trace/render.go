package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// RenderOptions tunes the EXPLAIN ANALYZE rendering.
type RenderOptions struct {
	// HideWall omits wall-clock fields, making the rendering a pure
	// function of the plan and data — what the golden tests pin.
	HideWall bool
	// Nodes adds a per-node breakdown line under every operator that has
	// per-node activity on more than one node.
	Nodes bool
}

// Render renders the trace as an EXPLAIN ANALYZE-style annotated plan
// tree: the physical operator line (same shape as plan.Rewritten.Explain,
// operator then recorded property), followed by an indented actuals line
// per operator.
func (t *Trace) Render(opt RenderOptions) string {
	if t == nil {
		return ""
	}
	var sb strings.Builder
	var walk func(ot *OpTrace, depth int)
	walk = func(ot *OpTrace, depth int) {
		pad := strings.Repeat("  ", depth)
		sb.WriteString(pad)
		sb.WriteString(ot.Label)
		if ot.Prop != "" {
			sb.WriteString("   ")
			sb.WriteString(ot.Prop)
		}
		sb.WriteByte('\n')
		sb.WriteString(pad)
		sb.WriteString("  (")
		sb.WriteString(ot.actuals(opt))
		sb.WriteString(")\n")
		if opt.Nodes && len(ot.Nodes) > 1 {
			for _, nm := range ot.Nodes {
				sb.WriteString(pad)
				sb.WriteString(fmt.Sprintf("  [node %d: %s]\n", nm.Node, metricsLine(&nm.Metrics, opt)))
			}
		}
		for _, c := range ot.Children {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	if !opt.HideWall {
		sb.WriteString(fmt.Sprintf("query wall: %s\n", time.Duration(t.WallNanos)))
	}
	return sb.String()
}

// actuals renders one operator's rolled-up measurement line.
func (ot *OpTrace) actuals(opt RenderOptions) string {
	return metricsLine(&ot.Totals, opt)
}

// metricsLine renders one cell. in/out/shipped always print; fault and
// recovery counters only when nonzero, so fault-free traces stay terse.
func metricsLine(m *Metrics, opt RenderOptions) string {
	parts := []string{
		fmt.Sprintf("in=%d", m.RowsIn),
		fmt.Sprintf("out=%d", m.RowsOut),
		fmt.Sprintf("shipped=%d rows/%s", m.RowsShipped, byteCount(m.BytesShipped)),
	}
	if m.DedupHits > 0 {
		parts = append(parts, fmt.Sprintf("dedup=%d", m.DedupHits))
	}
	if m.FilteredRows > 0 {
		parts = append(parts, fmt.Sprintf("filtered=%d", m.FilteredRows))
	}
	if m.SkippedRows > 0 {
		parts = append(parts, fmt.Sprintf("skipped=%d", m.SkippedRows))
	}
	if m.IndexProbes > 0 {
		parts = append(parts, fmt.Sprintf("probes=%d", m.IndexProbes))
	}
	if m.Work != m.RowsOut {
		parts = append(parts, fmt.Sprintf("work=%d", m.Work))
	}
	if m.Read != "" {
		parts = append(parts, "read="+m.Read)
	}
	if m.Retries > 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", m.Retries))
	}
	if m.WastedRows > 0 {
		parts = append(parts, fmt.Sprintf("wasted=%d", m.WastedRows))
	}
	if m.Failovers > 0 {
		parts = append(parts, fmt.Sprintf("failovers=%d", m.Failovers))
	}
	if m.RecoveredRows > 0 {
		parts = append(parts, fmt.Sprintf("recovered=%d", m.RecoveredRows))
	}
	if m.Hedges > 0 {
		parts = append(parts, fmt.Sprintf("hedges=%d/%d won", m.HedgeWins, m.Hedges))
	}
	if m.HedgeWastedRows > 0 {
		parts = append(parts, fmt.Sprintf("hedge-wasted=%d", m.HedgeWastedRows))
	}
	if !opt.HideWall {
		parts = append(parts, fmt.Sprintf("wall=%s", time.Duration(m.WallNanos).Round(time.Microsecond)))
	}
	return strings.Join(parts, " ")
}

// byteCount renders a byte total in the most compact exact unit: whole
// KiB/MiB when evenly divisible, bytes otherwise, so renderings stay
// deterministic (no rounding).
func byteCount(b int64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", b/(1<<20))
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// JSON marshals the trace (indented). The span schema is documented in
// DESIGN.md's Observability section.
func (t *Trace) JSON() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}
