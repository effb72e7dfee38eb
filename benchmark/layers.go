package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"pref/internal/batch"
	"pref/internal/bulkload"
	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/serve"
	"pref/internal/table"
	"pref/internal/trace"
)

// The traced pass: per-layer numbers from spans the benchmark records
// around each module's public entry points. Nothing here runs during a
// measured (--trace 0) window.

// setupLayerMetrics reports the set-up path step by step.
func setupLayerMetrics(r *result, ds *dataset) {
	r.set("tpch.generate_ms", ms(ds.generate))
	r.set("design.variants_ms", ms(ds.variants))
	r.set("partition.apply_ms", ms(ds.apply))
	r.set("partition.rows_per_s", float64(ds.t.DB.TotalRows())/ds.apply.Seconds())
	stored, dup, share := ds.partitionShape()
	r.set("partition.stored_rows", float64(stored))
	r.set("partition.dup_rows", float64(dup))
	r.set("partition.max_part_share", share)
}

// kernelRows is how many rows each kernel probe processes in total: the
// partition's column is walked as many whole times as fit. A few
// milliseconds of work per kernel, and the same work on every run.
const kernelRows = 2_000_000

func kernelReps(rows int) int { return max(1, kernelRows/rows) }

// batchKernelMetrics times the columnar kernels the join and scan
// operators are built from, on partition 0 of the workload's own data:
// Int64Table build over orders.orderkey, probe with lineitem.orderkey,
// Writer.AppendGather over lineitem, and batch.Filter with Q6's compiled
// predicate.
func batchKernelMetrics(r *result, ds *dataset) error {
	colsOf := func(tbl string) ([][]int64, int) {
		pt := ds.pdb.Tables[tbl]
		width := pt.Meta.NumCols()
		return pt.Snapshot().Parts[0].Columns(width).Cols, width
	}
	orderCols, _ := colsOf("orders")
	lineCols, lineWidth := colsOf("lineitem")
	buildKeys, probeKeys := orderCols[ordersOrderkey], lineCols[lineOrderkey]
	if len(buildKeys) == 0 || len(probeKeys) == 0 {
		return fmt.Errorf("batch kernels: partition 0 of orders or lineitem is empty")
	}

	var tbl *batch.Int64Table
	reps := kernelReps(len(buildKeys))
	start := time.Now()
	for i := 0; i < reps; i++ {
		tbl = batch.BuildInt64Table(buildKeys)
	}
	r.set("batch.table_build_ns_per_row", float64(time.Since(start))/float64(reps*len(buildKeys)))

	matches := 0
	reps = kernelReps(len(probeKeys))
	start = time.Now()
	for i := 0; i < reps; i++ {
		for _, k := range probeKeys {
			for row, ok := tbl.Head(k); ok; row, ok = tbl.Next(row) {
				matches++
			}
		}
	}
	r.set("batch.table_probe_ns_per_row", float64(time.Since(start))/float64(reps*len(probeKeys)))
	if matches == 0 {
		return fmt.Errorf("batch kernels: no lineitem of partition 0 found its order")
	}

	idx := make([]int32, batch.Size)
	for i := range idx {
		idx[i] = int32(i)
	}
	chunks := batch.Chunks(lineCols[:lineWidth])
	start = time.Now()
	for i := 0; i < reps; i++ {
		w := batch.NewWriter(lineWidth)
		for _, ch := range chunks {
			w.AppendGather(ch, idx[:ch.Len()])
		}
		batch.ReleaseAll(w.Finish())
	}
	r.set("batch.writer_gather_ns_per_row", float64(time.Since(start))/float64(reps*len(probeKeys)))

	rw, err := plan.Rewrite(ds.t.Query("Q6"), ds.pdb.Schema, ds.cfg, plan.Options{})
	if err != nil {
		return fmt.Errorf("batch kernels: rewrite Q6: %w", err)
	}
	var filter *plan.FilterNode
	walkPlan(rw.Root, func(n plan.Node) {
		if f, ok := n.(*plan.FilterNode); ok {
			if sc, ok := f.Child.(*plan.ScanNode); ok && sc.Table == "lineitem" {
				filter = f
			}
		}
	})
	if filter == nil {
		return fmt.Errorf("batch kernels: Q6 has no filter directly over the lineitem scan")
	}
	sch := rw.Schema(filter.Child)
	vp, err := plan.CompilePred(filter.Pred, sch)
	if err != nil {
		return fmt.Errorf("batch kernels: compile Q6's predicate: %w", err)
	}
	chunks = batch.Chunks(lineCols[:len(sch)]) // with or without the dup/hasRef vectors, as the scan would
	kept := 0
	start = time.Now()
	for i := 0; i < reps; i++ {
		for _, ch := range chunks {
			kept += batch.Filter(ch, vp).Len()
		}
	}
	r.set("batch.filter_ns_per_row", float64(time.Since(start))/float64(reps*len(probeKeys)))
	kernelSink = kept
	return nil
}

var kernelSink int

func walkPlan(n plan.Node, fn func(plan.Node)) {
	fn(n)
	for _, c := range n.Children() {
		walkPlan(c, fn)
	}
}

// opGroup maps an engine operator kind to the per-layer metric that sums
// its busy time.
func opGroup(k trace.Kind) string {
	switch k {
	case trace.KindJoin:
		return "engine.join_ms"
	case trace.KindDistinctPref, trace.KindDistinctByValue:
		return "engine.dedup_ms"
	case trace.KindRepartition, trace.KindBroadcast, trace.KindGather, trace.KindResult:
		return "engine.exchange_ms"
	case trace.KindScan:
		return "engine.scan_ms"
	case trace.KindFilter:
		return "engine.filter_ms"
	case trace.KindAggregate, trace.KindPartialAgg, trace.KindFinalAgg:
		return "engine.agg_ms"
	case trace.KindTopK:
		return "engine.topk_ms"
	case trace.KindProject:
		return "engine.project_ms"
	}
	return ""
}

var opGroups = []string{
	"engine.join_ms", "engine.dedup_ms", "engine.exchange_ms", "engine.scan_ms",
	"engine.filter_ms", "engine.agg_ms", "engine.topk_ms", "engine.project_ms",
}

// replayer replays requests one layer at a time, single client, recording
// a span around each call: request → plan.rewrite, plan.compile_pred,
// engine.execute, engine.execute.traced → engine.op.<kind>, serve.submit,
// http.request. The same query therefore runs once per layer entry point;
// the spans nest by cause, not by wall-clock containment.
type replayer struct {
	rec  *recorder
	ds   *dataset
	srv  *serve.Server
	hc   *http.Client // nil without a prefserve process
	base string

	requests int // reads and writes: the spans' request ids
	reads    int
	// Sums over all replayed reads.
	rewrite, compile, execOff, submit time.Duration
	httpOverhead                      time.Duration
	httpBytes, httpRows               int64
	cpu                               time.Duration
	allocBytes, allocs                uint64
	stats                             engine.Stats
	dedupHits                         int64
	busy                              map[string]time.Duration
	// Per read, because these two are small differences of large timings
	// and one garbage collection inside either term swamps a mean: the
	// serving layer's share of a submit in µs, and traced over untraced
	// execution time.
	serveOverheadUs, traceRatio []float64
}

func newReplayer(ds *dataset, srv *serve.Server, proc *serverProc) *replayer {
	p := &replayer{rec: newRecorder(), ds: ds, srv: srv, busy: map[string]time.Duration{}}
	if proc != nil {
		p.hc, p.base = newHTTPClient(), proc.base
	}
	return p
}

// one replays a single request and returns the digest every layer agreed
// on; layers that disagree with each other are an error.
func (p *replayer) one(query string) (digest, error) {
	p.requests++
	p.reads++
	req := p.requests
	rec := p.rec
	root := rec.begin(0, req, "request")
	defer func() { rec.end(root, map[string]int64{"epoch": p.ds.pdb.Epoch()}) }()

	id := rec.begin(root, req, "plan.rewrite")
	rw, err := plan.Rewrite(p.ds.t.Query(query), p.ds.pdb.Schema, p.ds.cfg, plan.Options{})
	rec.end(id, nil)
	if err != nil {
		return digest{}, fmt.Errorf("replay: rewrite %s: %w", query, err)
	}
	rewrite := rec.duration(id)
	p.rewrite += rewrite

	id = rec.begin(root, req, "plan.compile_pred")
	preds := int64(0)
	var cerr error
	walkPlan(rw.Root, func(n plan.Node) {
		if f, ok := n.(*plan.FilterNode); ok && cerr == nil {
			_, cerr = plan.CompilePred(f.Pred, rw.Schema(f.Child))
			preds++
		}
	})
	rec.end(id, map[string]int64{"predicates": preds})
	if cerr != nil {
		return digest{}, fmt.Errorf("replay: compile predicates of %s: %w", query, cerr)
	}
	p.compile += rec.duration(id)

	// Untraced and traced execution, in alternating order so that neither
	// always runs on the caches the other warmed.
	var off, on *engine.Result
	var execOff, execOn time.Duration
	for _, traced := range [2]bool{req%2 == 0, req%2 != 0} {
		if traced {
			if on, execOn, err = p.executeTraced(root, req, rw); err != nil {
				return digest{}, fmt.Errorf("replay: traced execute %s: %w", query, err)
			}
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := selfCPU()
		id = rec.begin(root, req, "engine.execute")
		off, err = engine.ExecuteCtx(context.Background(), rw, p.ds.pdb, engine.ExecOptions{})
		rec.end(id, nil)
		p.cpu += selfCPU() - cpu0
		runtime.ReadMemStats(&m1)
		if err != nil {
			return digest{}, fmt.Errorf("replay: execute %s: %w", query, err)
		}
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.allocs += m1.Mallocs - m0.Mallocs
		execOff = rec.duration(id)
		p.execOff += execOff
		addStats(&p.stats, off.Stats)
	}
	p.traceRatio = append(p.traceRatio, float64(execOn)/float64(execOff))
	d := digestRows(off.Rows)
	if dOn := digestRows(on.Rows); dOn != d {
		return digest{}, fmt.Errorf("replay: %s: traced execution answered %+v, untraced %+v", query, dOn, d)
	}

	id = rec.begin(root, req, "serve.submit")
	resp, err := submit(p.srv, query, httpTimeout)
	if err != nil {
		rec.end(id, nil)
		return digest{}, fmt.Errorf("replay: submit %s: %w", query, err)
	}
	hit := int64(0)
	if resp.CacheHit {
		hit = 1
	}
	rec.end(id, map[string]int64{"rows": int64(len(resp.Rows)), "cache_hit": hit, "epoch": resp.Epoch})
	p.submit += rec.duration(id)
	overhead := rec.duration(id) - execOff
	if !resp.CacheHit {
		overhead -= rewrite
	}
	p.serveOverheadUs = append(p.serveOverheadUs, float64(overhead)/float64(time.Microsecond))
	if dS := digestRows(resp.Rows); dS != d {
		return digest{}, fmt.Errorf("replay: %s: serve.Submit answered %+v, engine %+v", query, dS, d)
	}

	if p.hc != nil {
		s := doQuery(p.hc, p.base, query)
		if s.Err != "" {
			return digest{}, fmt.Errorf("replay: http %s: %s", query, s.Err)
		}
		rec.add(root, req, "http.request", int64(s.Start.Sub(rec.epoch)), int64(s.End.Sub(rec.epoch)), map[string]int64{
			"bytes": s.Bytes, "rows": int64(s.Digest.Rows), "server_latency_us": s.ServerLatency.Microseconds(),
		})
		p.httpOverhead += s.latency() - s.ServerLatency
		p.httpBytes += s.Bytes
		p.httpRows += int64(s.Digest.Rows)
		if s.Digest != d {
			return digest{}, fmt.Errorf("replay: %s: prefserve answered %+v, engine %+v", query, s.Digest, d)
		}
	}
	return d, nil
}

// executeTraced runs the plan with the engine's own Trace option and turns
// the finished operator tree into child spans. The engine exposes busy
// nanoseconds per operator and node but no timestamps, so the children are
// laid end to end in execution (post-) order from the parent's start, each
// as long as its slowest node; the summed busy time rides in the counts.
func (p *replayer) executeTraced(root, req int, rw *plan.Rewritten) (*engine.Result, time.Duration, error) {
	rec := p.rec
	id := rec.begin(root, req, "engine.execute.traced")
	res, err := engine.ExecuteCtx(context.Background(), rw, p.ds.pdb, engine.ExecOptions{Trace: true})
	rec.end(id, nil)
	if err != nil {
		return nil, 0, err
	}
	cursor := rec.spans[id-1].StartNs
	var lay func(ot *trace.OpTrace)
	lay = func(ot *trace.OpTrace) {
		for _, c := range ot.Children {
			lay(c)
		}
		slowest := int64(0)
		for _, n := range ot.Nodes {
			slowest = max(slowest, n.WallNanos)
		}
		t := ot.Totals
		rec.add(id, req, "engine.op."+string(ot.Kind), cursor, cursor+slowest, map[string]int64{
			"busy_ns": t.WallNanos, "nodes": int64(len(ot.Nodes)), "rows_in": t.RowsIn, "rows_out": t.RowsOut,
			"rows_shipped": t.RowsShipped, "bytes_shipped": t.BytesShipped, "dedup_hits": t.DedupHits, "work": t.Work,
		})
		cursor += slowest
		p.dedupHits += t.DedupHits
		if g := opGroup(ot.Kind); g != "" {
			p.busy[g] += time.Duration(t.WallNanos)
		}
	}
	if res.Trace != nil && res.Trace.Root != nil {
		lay(res.Trace.Root)
	}
	return res, rec.duration(id), nil
}

func addStats(sum *engine.Stats, s engine.Stats) {
	sum.BytesShipped += s.BytesShipped
	sum.RowsShipped += s.RowsShipped
	sum.RowsProcessed += s.RowsProcessed
	sum.MaxNodeRows += s.MaxNodeRows
	sum.Repartitions += s.Repartitions
	sum.Broadcasts += s.Broadcasts
	sum.Retries += s.Retries
}

// report turns the replay's sums into per-query layer metrics.
func (p *replayer) report(r *result) {
	n := float64(p.reads)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / n }
	r.set("plan.rewrite_us", us(p.rewrite))
	r.set("plan.compile_pred_us", us(p.compile))
	r.set("engine.execute_ms", ms(p.execOff)/n)
	r.set("engine.cpu_ms_per_query", ms(p.cpu)/n)
	r.set("engine.alloc_kb_per_query", float64(p.allocBytes)/1024/n)
	r.set("engine.allocs_per_query", float64(p.allocs)/n)
	for _, g := range opGroups {
		r.set(g, ms(p.busy[g])/n)
	}
	r.set("engine.rows_processed_per_query", float64(p.stats.RowsProcessed)/n)
	r.set("engine.rows_shipped_per_query", float64(p.stats.RowsShipped)/n)
	r.set("engine.exchanges_per_query", float64(p.stats.Repartitions+p.stats.Broadcasts)/n)
	r.set("engine.dedup_hits_per_query", float64(p.dedupHits)/n)
	r.set("engine.max_node_share", float64(p.stats.MaxNodeRows)*float64(p.ds.pdb.N)/float64(p.stats.RowsProcessed))
	r.set("engine.retries", float64(p.stats.Retries))
	r.set("trace.overhead_ratio", median(p.traceRatio))
	r.set("serve.submit_ms", ms(p.submit)/n)
	r.set("serve.overhead_us", median(p.serveOverheadUs))
	r.set("http.overhead_ms", ms(p.httpOverhead)/n)
	r.set("http.bytes_per_query", float64(p.httpBytes)/n)
	r.set("http.rows_per_query", float64(p.httpRows)/n)
}

// windowLayerMetrics reports the traced run's window: the load's time and
// memory readings as the clocks took them, and what the system's own
// counters and the process table say.
func windowLayerMetrics(r *result, w *window, ok []sample, peakRSSMB float64, clientIsSeparate bool) {
	okReads := len(ok)
	l := measureLoad(w, ok)
	r.set("qps", l.qps)
	r.set("latency_p50_ms", l.p50Ms)
	r.set("latency_p90_ms", l.p90Ms)
	r.set("cpu_ms_per_query", l.cpuMsPerQuery)
	r.set("rss_warm_mb", w.rssWarmMB)
	b, a := w.before, w.after
	hits, misses := a.PlanCacheHits-b.PlanCacheHits, a.PlanCacheMisses-b.PlanCacheMisses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	r.set("serve.plan_cache_hit_ratio", ratio)
	r.set("serve.completed", float64(a.Completed-b.Completed))
	rejected := int64(0)
	for stage, n := range a.Rejected {
		rejected += n - b.Rejected[stage]
	}
	r.set("serve.rejected", float64(rejected))
	r.set("serve.retries", float64(a.Retries-b.Retries))
	r.set("serve.deadline_kills", float64(a.DeadlineExceeded-b.DeadlineExceeded))
	r.set("cluster.admitted", float64(a.Cluster.Admitted-b.Cluster.Admitted))
	r.set("cluster.rejected", float64(a.Cluster.Rejected-b.Cluster.Rejected))
	r.set("cluster.trips", float64(a.Cluster.Trips-b.Cluster.Trips))
	r.set("host.calib_ms", ms(w.calib))
	clientCPU := 0.0
	if clientIsSeparate && okReads > 0 {
		clientCPU = ms(w.clientCPU) / float64(okReads)
	}
	r.set("host.client_cpu_ms_per_query", clientCPU)
	r.set("proc.rss_peak_mb", peakRSSMB)
	r.set("fail_ratio", float64(r.Failed)/float64(r.Attempted))
}

// runHTTPTraced is the --trace 1 run of an HTTP workload: one cold start,
// a window like the measured run's (for the load's time and memory
// readings and the system's own counters), then the in-process twin for the set-up and kernel
// probes and the layer-by-layer replay, the prefserve process still up for
// the replay's http.request spans.
func runHTTPTraced(cfg config, wl workload) (*result, error) {
	r := newResult(wl)
	srv, _, err := coldStarts(cfg, wl, 1)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	w, err := httpWindow(srv, wl, cfg.seed, cfg.scale.warmup, cfg.window)
	if err != nil {
		return nil, err
	}

	ds, want, ok, err := checkHTTPWindow(r, cfg, wl, w)
	if err != nil {
		return nil, err
	}

	setupLayerMetrics(r, ds)
	if err := batchKernelMetrics(r, ds); err != nil {
		return nil, err
	}
	inproc, err := newInprocServer(ds)
	if err != nil {
		return nil, err
	}
	defer inproc.Close(context.Background())
	p := newReplayer(ds, inproc, srv)
	seq := newQuerySeq(wl.mix, cfg.seed, 0)
	for i := 0; i < wl.replayRounds*len(wl.mix); i++ {
		q := seq.next()
		d, err := p.one(q)
		if err != nil {
			return nil, err
		}
		r.Attempted++
		if d != want[q] {
			r.Correct = false
			r.fail("replay %s: digest %+v, oracle %+v", q, d, want[q])
		}
	}
	p.report(r)
	peak, err := procMemMB(srv.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	windowLayerMetrics(r, w, ok, peak, true)
	for _, name := range []string{
		"table.columnar_build_ms", "table.columnar_rebuilds",
		"bulkload.apply_ms_p50", "bulkload.apply_ms_p95", "bulkload.rows_per_s",
		"bulkload.stored_per_insert", "bulkload.publishes", "bulkload.rejected_ops",
	} {
		r.set(name, 0) // no writer on a read-only workload
	}
	if err := p.rec.write(cfg.tracePath(wl), wl.name, cfg.seed); err != nil {
		return nil, err
	}
	r.notef("%d spans of %d replayed requests written to %s", len(p.rec.spans), p.requests, cfg.tracePath(wl))
	return r, nil
}

// applyTraced applies one write batch under a bulkload.apply span, then
// builds the columnar projection of every partition the commit replaced —
// the work the next reader would otherwise do — under table.columnar_build.
func (p *replayer) applyTraced(loader *bulkload.Loader, ops []bulkload.Op, builds *[]time.Duration) error {
	p.requests++
	req := p.requests
	rec := p.rec
	root := rec.begin(0, req, "write")
	defer func() { rec.end(root, nil) }()

	old := map[string][]*table.Partition{}
	for name, pt := range p.ds.pdb.Tables {
		old[name] = pt.Snapshot().Parts
	}
	id := rec.begin(root, req, "bulkload.apply")
	c, err := loader.Apply(ops...)
	if err != nil {
		rec.end(id, nil)
		return fmt.Errorf("replay: apply: %w", err)
	}
	rec.end(id, map[string]int64{"ops": int64(len(ops)), "inserted": int64(c.Inserted), "stored": int64(c.Stored), "rewritten": int64(c.Rewritten), "epoch": c.Epoch})
	for _, name := range c.Tables {
		pt := p.ds.pdb.Tables[name]
		width := pt.Meta.NumCols()
		for i, part := range pt.Snapshot().Parts {
			if part == old[name][i] {
				continue
			}
			id := rec.begin(root, req, "table.columnar_build")
			part.Columns(width)
			rec.end(id, map[string]int64{"rows": int64(part.Len()), "partition": int64(i)})
			*builds = append(*builds, rec.duration(id))
		}
	}
	return nil
}

// bulkloadMetrics summarises the Apply calls of a window.
func bulkloadMetrics(r *result, writes []writeSample, failed int) {
	var lat []float64
	var busy time.Duration
	inserted, stored := 0, 0
	for _, ws := range writes {
		lat = append(lat, ms(ws.End.Sub(ws.Start)))
		busy += ws.End.Sub(ws.Start)
		inserted += ws.Commit.Inserted
		stored += ws.Commit.Stored
	}
	sorted := sortedCopy(lat)
	r.set("bulkload.apply_ms_p50", percentile(sorted, 50))
	r.set("bulkload.apply_ms_p95", percentile(sorted, 95))
	r.set("bulkload.rows_per_s", float64(inserted)/busy.Seconds())
	r.set("bulkload.stored_per_insert", float64(stored)/float64(inserted))
	r.set("bulkload.publishes", float64(len(writes)))
	r.set("bulkload.rejected_ops", float64(failed))
}

// runMixedTraced is the --trace 1 run of mixed_rw: one system, a window
// like the measured run's with reader and writer, then the
// replay — the read mix layer by layer, one write cycle after every round
// — and last the oracle replay over everything the system was asked.
func runMixedTraced(cfg config, wl workload) (*result, error) {
	r := newResult(wl)
	m, err := startMixed(cfg, wl, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer m.close()
	setupLayerMetrics(r, m.ds)
	w, writes, err := m.window(cfg, wl)
	if err != nil {
		return nil, err
	}

	p := newReplayer(m.ds, m.srv, nil)
	seq := newQuerySeq(wl.mix, cfg.seed, 0)
	var builds []time.Duration
	var replayed []sample
	for round := 0; round < wl.replayRounds; round++ {
		for range wl.mix {
			q := seq.next()
			d, err := p.one(q)
			if err != nil {
				return nil, err
			}
			replayed = append(replayed, sample{Query: q, Digest: d, Epoch: m.ds.pdb.Epoch()})
		}
		for i := 0; i < writeCycle; i++ {
			if err := p.applyTraced(m.loader, m.stream.next(), &builds); err != nil {
				return nil, err
			}
		}
	}
	if err := batchKernelMetrics(r, m.ds); err != nil {
		return nil, err
	}

	ok, okWrites, failedWrites, err := m.check(r, wl, cfg, w, writes, replayed)
	if err != nil {
		return nil, err
	}
	if len(okWrites) == 0 {
		return nil, fmt.Errorf("%s: no write batch committed inside the window", wl.name)
	}
	bulkloadMetrics(r, okWrites, failedWrites)

	p.report(r)
	r.set("table.columnar_build_ms", ms(sumDurations(builds))/float64(max(len(builds), 1)))
	r.set("table.columnar_rebuilds", float64(len(builds)))
	peak, err := procMemMB(selfPID, "VmHWM")
	if err != nil {
		return nil, err
	}
	windowLayerMetrics(r, w, ok, peak, false)
	if err := p.rec.write(cfg.tracePath(wl), wl.name, cfg.seed); err != nil {
		return nil, err
	}
	r.notef("%d spans of %d replayed requests written to %s", len(p.rec.spans), p.requests, cfg.tracePath(wl))
	return r, nil
}

func sumDurations(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}
