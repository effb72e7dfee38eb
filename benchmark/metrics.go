package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric; BENCHMARK.json at the repository root
// repeats these lists and a test keeps the two identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a measured (--trace 0) run of every workload reports,
// and what a later change is held to.
//
// The issue's rule is that a time metric which cannot hold a 0.10 bound on
// the reference host is demoted to a per-layer metric, not given a wider
// bound and not corrected by a model. None of them held it: ten same-code
// runs spread by 4–19 % of their median in calm host weather and 16–44 %
// in rough (README.md, "Noise record"). So qps, the latencies,
// cpu_ms_per_query and rss_warm_mb are in perLayer under their own names,
// and a traced run reports them as the clocks read them. setup_s stays
// because the contract requires it, with the contract's largest bound.
//
// The other three come from the count pass: engine counters over a fixed
// query sequence on countSeed data. They repeat to the last bit whatever
// --seed is, so their bound only has to let rounding through.
// sim_ms_per_query is the cost model's output, not a clock reading, hence
// its unit.
//
// fail_ratio and write_latency_p50_ms cannot be listed here: every
// workload reports every end-to-end metric and none may read 0. Failures
// are held to zero through the result line instead — transport errors,
// non-200s, deadline kills, oracle mismatches and failed Loader.Apply calls
// are counted in "failed", and any of them clears "correct" and makes the
// command exit non-zero. mixed_rw's write latency is bulkload.apply_ms_p50.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"shipped_mb_per_query", "MB", "lower", 0.01},
	{"sim_ms_per_query", "sim_ms", "lower", 0.01},
	{"stored_ratio", "ratio", "lower", 0.01},
}

// perLayer is what a traced (--trace 1) run reports: one module each, named
// <module>.<metric>, and last the whole system under load. A metric that does not exist on a workload (http.* in
// process, bulkload.* without a writer) reads 0 there.
var perLayer = []metricDef{
	// Set-up path → setup_s everywhere; the stored/dup/share counts →
	// stored_ratio and rss_warm_mb on the SD workloads.
	{Name: "tpch.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "design.variants_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "partition.stored_rows", Unit: "count", Better: "lower"},
	{Name: "partition.dup_rows", Unit: "count", Better: "lower"},
	{Name: "partition.max_part_share", Unit: "ratio", Better: "lower"},
	// Plan and projection caches → latency_p50_ms, qps on mixed_rw.
	{Name: "plan.rewrite_us", Unit: "us", Better: "lower"},
	{Name: "plan.compile_pred_us", Unit: "us", Better: "lower"},
	{Name: "serve.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "table.columnar_build_ms", Unit: "ms", Better: "lower"},
	{Name: "table.columnar_rebuilds", Unit: "count", Better: "lower"},
	// Engine → cpu_ms_per_query, qps, latency_p50_ms everywhere; the
	// per-operator split says which workload should move.
	{Name: "engine.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.cpu_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "engine.alloc_kb_per_query", Unit: "kB", Better: "lower"},
	{Name: "engine.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.join_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.dedup_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.exchange_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.filter_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.agg_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.topk_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.project_ms", Unit: "ms", Better: "lower"},
	// The paper's currency → shipped_mb_per_query, sim_ms_per_query.
	{Name: "engine.rows_processed_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.rows_shipped_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.exchanges_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.dedup_hits_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.max_node_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.retries", Unit: "count", Better: "lower"},
	// Batch kernels → cpu_ms_per_query on join_* (table, writer) and
	// agg_scan (filter).
	{Name: "batch.table_build_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "batch.table_probe_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "batch.writer_gather_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "batch.filter_ns_per_row", Unit: "ns", Better: "lower"},
	// Telemetry budget; no end-to-end metric, tracing is off there.
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	// Serving ladder → latency_p50_ms on mixed_rw (short queries);
	// the counters → failed.
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.completed", Unit: "count", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.retries", Unit: "count", Better: "lower"},
	{Name: "serve.deadline_kills", Unit: "count", Better: "lower"},
	{Name: "cluster.admitted", Unit: "count", Better: "higher"},
	{Name: "cluster.rejected", Unit: "count", Better: "lower"},
	{Name: "cluster.trips", Unit: "count", Better: "lower"},
	// HTTP shell → latency_p90_ms on join_* (Q18's large reply).
	{Name: "http.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "http.bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "http.rows_per_query", Unit: "count", Better: "lower"},
	// Write path → bulkload.apply_ms_p50 is mixed_rw's write latency; a
	// gain there must not lower that workload's qps.
	{Name: "bulkload.apply_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bulkload.apply_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "bulkload.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bulkload.stored_per_insert", Unit: "ratio", Better: "lower"},
	{Name: "bulkload.publishes", Unit: "count", Better: "higher"},
	{Name: "bulkload.rejected_ops", Unit: "count", Better: "lower"},
	// What the client saw of the traced run's window, as the clocks read
	// it: the end-to-end metrics that could not hold a bound (see endToEnd).
	{Name: "qps", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "rss_warm_mb", Unit: "MB", Better: "lower"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	// Diagnostics for telling host drift from a real difference.
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "host.client_cpu_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
}

// result is one run of one workload.
type result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Notes are human-readable lines (sample counts, the percentile the
	// sample supports, first failures); they go to standard error.
	Notes []string
}

func newResult(wl workload) *result {
	return &result{Workload: wl.name, Correct: true, Metrics: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if r.Failed <= 5 {
		r.notef("FAIL: "+format, args...)
	}
}

// complete checks that exactly the declared metrics are present.
func (r *result) complete(defs []metricDef) error {
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
	}
	if len(r.Metrics) != len(defs) {
		declared := map[string]bool{}
		for _, d := range defs {
			declared[d.Name] = true
		}
		for name := range r.Metrics {
			if !declared[name] {
				return fmt.Errorf("%s: metric %s is not declared", r.Workload, name)
			}
		}
	}
	return nil
}

// writeJSONLine prints the driver's contract line: one JSON object with
// exactly the keys correct, attempted, failed and metrics.
func (r *result) writeJSONLine(w io.Writer, defs []metricDef) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct && r.Failed == 0, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{r.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeTable prints every metric by name and unit, for people.
func (r *result) writeTable(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", r.Workload, r.Attempted, r.Failed, r.Correct && r.Failed == 0)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
