// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Section 5), plus the ablations DESIGN.md calls out.
// Each benchmark regenerates its artifact via the shared experiment
// drivers in internal/bench and reports the headline numbers as custom
// metrics, so `go test -bench=. -benchmem` reproduces the whole evaluation.
//
// The printed tables (with the paper's reference values) come from
// `go run ./cmd/prefbench`; EXPERIMENTS.md records a full run.
package pref_test

import (
	"strings"
	"testing"

	"pref/internal/bench"
)

// metricName sanitizes a report label into a benchmark metric unit
// (ReportMetric forbids whitespace).
func metricName(parts ...string) string {
	s := strings.Join(parts, "/")
	s = strings.ReplaceAll(s, " ", "_")
	s = strings.ReplaceAll(s, "(", "")
	s = strings.ReplaceAll(s, ")", "")
	return s
}

// benchParams returns the experiment parameters used by the benchmarks:
// 10 nodes (as in Section 5) at laptop scale.
func benchParams() bench.Params {
	p := bench.DefaultParams()
	p.SF = 0.005
	p.DSSF = 0.5
	return p
}

// reportRows surfaces selected report cells as benchmark metrics.
func reportRows(b *testing.B, r *bench.Report, unit string) {
	b.Helper()
	for _, row := range r.Rows {
		for i, v := range row.Values {
			if i < len(r.Columns) {
				b.ReportMetric(v, metricName(row.Label, r.Columns[i]+unit))
			}
		}
	}
}

func runExperiment(b *testing.B, id string) *bench.Report {
	b.Helper()
	e, ok := bench.LookupExperiment(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var r *bench.Report
	var err error
	for i := 0; i < b.N; i++ {
		r, err = e.Run(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkTable1_TPCHLocalityRedundancy regenerates Table 1: DL and DR of
// the TPC-H partitioning variants.
func BenchmarkTable1_TPCHLocalityRedundancy(b *testing.B) {
	r := runExperiment(b, "table1")
	reportRows(b, r, "")
}

// BenchmarkFig7_TotalRuntime regenerates Figure 7: total TPC-H runtime per
// variant (simulated milliseconds on the cost model).
func BenchmarkFig7_TotalRuntime(b *testing.B) {
	r := runExperiment(b, "fig7")
	for _, row := range r.Rows {
		v, _ := r.Value(row.Label, "sim_ms")
		b.ReportMetric(v, metricName(row.Label, "sim_ms"))
	}
}

// BenchmarkFig8_PerQuery regenerates Figure 8: per-query runtimes. Only
// the per-variant totals are reported as metrics (22×5 cells would drown
// the output); run `prefbench -exp fig8` for the full table.
func BenchmarkFig8_PerQuery(b *testing.B) {
	r := runExperiment(b, "fig8")
	for ci, col := range r.Columns {
		total := 0.0
		for _, row := range r.Rows {
			if ci < len(row.Values) {
				total += row.Values[ci]
			}
		}
		b.ReportMetric(total, metricName(col, "total_ms"))
	}
}

// BenchmarkFig9_Optimizations regenerates Figure 9: the dup/hasRef index
// optimizations (speedup per case).
func BenchmarkFig9_Optimizations(b *testing.B) {
	r := runExperiment(b, "fig9")
	for _, row := range r.Rows {
		v, _ := r.Value(row.Label, "speedup")
		b.ReportMetric(v, metricName(row.Label, "speedup"))
	}
}

// BenchmarkFig10_BulkLoading regenerates Figure 10: bulk-loading cost per
// variant.
func BenchmarkFig10_BulkLoading(b *testing.B) {
	r := runExperiment(b, "fig10")
	for _, row := range r.Rows {
		v, _ := r.Value(row.Label, "wall_ms")
		b.ReportMetric(v, metricName(row.Label, "load_ms"))
	}
}

// BenchmarkFig11a_TPCH regenerates Figure 11(a): locality vs redundancy on
// TPC-H.
func BenchmarkFig11a_TPCH(b *testing.B) {
	r := runExperiment(b, "fig11a")
	reportRows(b, r, "")
}

// BenchmarkFig11b_TPCDS regenerates Figure 11(b): locality vs redundancy
// on TPC-DS.
func BenchmarkFig11b_TPCDS(b *testing.B) {
	r := runExperiment(b, "fig11b")
	reportRows(b, r, "")
}

// BenchmarkFig12a_ScaleOutTPCH regenerates Figure 12(a): redundancy growth
// with the node count on TPC-H (endpoint metrics only).
func BenchmarkFig12a_ScaleOutTPCH(b *testing.B) {
	r := runExperiment(b, "fig12a")
	for _, col := range r.Columns {
		v, _ := r.Value("n=100", col)
		b.ReportMetric(v, metricName(col, "DR_at_100"))
	}
}

// BenchmarkFig12b_ScaleOutTPCDS regenerates Figure 12(b) for TPC-DS.
func BenchmarkFig12b_ScaleOutTPCDS(b *testing.B) {
	r := runExperiment(b, "fig12b")
	for _, col := range r.Columns {
		v, _ := r.Value("n=100", col)
		b.ReportMetric(v, metricName(col, "DR_at_100"))
	}
}

// BenchmarkFig13_SamplingAccuracy regenerates Figure 13: estimate error
// and design runtime vs sampling rate (the 10% operating point).
func BenchmarkFig13_SamplingAccuracy(b *testing.B) {
	r := runExperiment(b, "fig13")
	for _, col := range r.Columns {
		v, _ := r.Value("10%", col)
		b.ReportMetric(v, metricName(col, "at_10pct"))
	}
}

// ---- ablations ----

// BenchmarkAblation_SpanningTreeChoice: maximum vs minimum spanning tree
// as the co-partitioning edge set (Section 3.2's locality objective).
func BenchmarkAblation_SpanningTreeChoice(b *testing.B) {
	r := runExperiment(b, "ablation-mast")
	reportRows(b, r, "")
}

// BenchmarkAblation_EstimatorChoice: joint expected-copies estimator vs
// the paper's literal formula vs the naive min(n,f) bound.
func BenchmarkAblation_EstimatorChoice(b *testing.B) {
	r := runExperiment(b, "ablation-estimator")
	for _, row := range r.Rows {
		v, _ := r.Value(row.Label, "rel_error")
		b.ReportMetric(v, metricName(row.Label, "rel_error"))
	}
}

// BenchmarkAblation_PartitionIndex: bulk loading with vs without the
// Section 2.3 partition index.
func BenchmarkAblation_PartitionIndex(b *testing.B) {
	r := runExperiment(b, "ablation-partindex")
	for _, row := range r.Rows {
		v, _ := r.Value(row.Label, "wall_ms")
		b.ReportMetric(v, metricName(row.Label, "load_ms"))
	}
}

// BenchmarkAblation_WDPhase1: the WD containment merge's effect on the
// cost-based phase's input size and runtime.
func BenchmarkAblation_WDPhase1(b *testing.B) {
	r := runExperiment(b, "ablation-wdphase1")
	for _, row := range r.Rows {
		v, _ := r.Value(row.Label, "wall_ms")
		b.ReportMetric(v, metricName(row.Label, "design_ms"))
	}
}

// BenchmarkAblation_PartitionPruning: the partition-pruning extension
// (the paper's named future work) on point queries — cluster work saved.
func BenchmarkAblation_PartitionPruning(b *testing.B) {
	r := runExperiment(b, "ablation-pruning")
	for _, row := range r.Rows {
		v, _ := r.Value(row.Label, "rows_processed")
		b.ReportMetric(v, metricName(row.Label, "rows"))
	}
}

// BenchmarkExt_OLTPLocality: the paper's OLTP outlook — fraction of
// customer transactions resolvable on a single node under the
// no-redundancy WD design vs plain hashing.
func BenchmarkExt_OLTPLocality(b *testing.B) {
	r := runExperiment(b, "ext-oltp")
	for _, row := range r.Rows {
		v, _ := r.Value(row.Label, "single_node_pct")
		b.ReportMetric(v, metricName(row.Label, "single_node_pct"))
	}
}
