package main

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"pref/internal/engine"
	"pref/internal/serve"
)

// window is one warm-up plus measured interval of closed-loop load, and
// what was read off the system at its two edges.
type window struct {
	from, to  time.Time
	measured  []sample // started and finished inside [from, to]
	outside   []sample // the rest: warm-up, and replies that straddle an edge
	rssWarmMB float64  // median of VmRSS sampled every rssEvery over the interval
	sysCPU    time.Duration
	clientCPU time.Duration
	before    serve.Metrics
	after     serve.Metrics
	calib     time.Duration // calibration kernel: mean of the readings before and after the clients ran
}

const rssEvery = 250 * time.Millisecond

func (w *window) seconds() float64 { return w.to.Sub(w.from).Seconds() }

// probes are the hooks a window reads the system through, so the HTTP and
// the in-process workloads share one measurement loop.
type probes struct {
	rssMB   func() (float64, error)
	cpu     func() (time.Duration, error) // the system under test
	metrics func() (serve.Metrics, error)
}

// runWindow drives n closed-loop clients through warm-up and the measured
// interval. The clients never pause between the two: the interval is only
// a pair of timestamps laid over one continuous run.
func runWindow(n int, warmup, dur time.Duration, p probes, next func(client int) func() sample, beside func(stop *atomic.Bool)) (*window, error) {
	w := &window{}
	calibBefore := calibrate()
	var stop atomic.Bool
	var all []sample
	done := make(chan struct{})
	go func() {
		defer close(done)
		all = closedLoop(n, &stop, next)
	}()
	besideDone := make(chan struct{})
	go func() {
		defer close(besideDone)
		if beside != nil {
			beside(&stop)
		}
	}()
	err := w.measure(warmup, dur, p)
	stop.Store(true)
	<-done
	<-besideDone
	w.calib = (calibBefore + calibrate()) / 2
	if err != nil {
		return nil, err
	}
	for _, s := range all {
		if !s.Start.Before(w.from) && !s.End.After(w.to) {
			w.measured = append(w.measured, s)
		} else {
			w.outside = append(w.outside, s)
		}
	}
	return w, nil
}

// measure sleeps through warm-up and the interval and reads the system at
// the interval's two edges and, for RSS, all the way through it.
func (w *window) measure(warmup, dur time.Duration, p probes) error {
	time.Sleep(warmup)
	var err error
	if w.before, err = p.metrics(); err != nil {
		return err
	}
	cpu0, err := p.cpu()
	if err != nil {
		return err
	}
	self0 := selfCPU()
	w.from = time.Now()
	// One reading of a garbage-collected process's RSS says where the
	// collector happened to be; the median over the interval does not.
	var rss []float64
	for end := w.from.Add(dur); time.Now().Before(end); {
		mb, err := p.rssMB()
		if err != nil {
			return err
		}
		rss = append(rss, mb)
		time.Sleep(min(rssEvery, time.Until(end)))
	}
	w.rssWarmMB = median(rss)
	w.to = time.Now()
	w.clientCPU = selfCPU() - self0
	cpu1, err := p.cpu()
	if err != nil {
		return err
	}
	w.sysCPU = cpu1 - cpu0
	w.after, err = p.metrics()
	return err
}

// checkSamples splits samples into correct replies and the rest. want
// returns the oracle's digest for a sample, or false when the oracle was
// not asked about it (mixed_rw re-executes only every n-th epoch). With
// counted set the bad ones are added to r.Failed; outside the window they
// clear r.Correct, which fails the run as surely.
func checkSamples(r *result, samples []sample, counted bool, want func(sample) (digest, bool)) (ok []sample) {
	bad := func(format string, args ...any) {
		if counted {
			r.fail(format, args...)
		} else {
			r.Correct = false
			r.notef("FAIL outside the window: "+format, args...)
		}
	}
	for _, s := range samples {
		d, known := want(s)
		switch {
		case s.Err != "":
			bad("%s: %s", s.Query, s.Err)
		case known && s.Digest != d:
			r.Correct = false
			bad("%s at epoch %d: reply digest %+v, oracle %+v", s.Query, s.Epoch, s.Digest, d)
		default:
			ok = append(ok, s)
		}
	}
	return ok
}

// byQuery is the want function of a read-only workload.
func byQuery(want map[string]digest) func(sample) (digest, bool) {
	return func(s sample) (digest, bool) {
		d, ok := want[s.Query]
		return d, ok
	}
}

// loadReadings are a window's time readings, as the clocks took them.
type loadReadings struct {
	qps, p50Ms, p90Ms, cpuMsPerQuery float64
}

func measureLoad(w *window, ok []sample) loadReadings {
	lat := make([]float64, len(ok))
	for i, s := range ok {
		lat[i] = ms(s.latency())
	}
	sort.Float64s(lat)
	return loadReadings{
		qps:           float64(len(ok)) / w.seconds(),
		p50Ms:         percentile(lat, 50),
		p90Ms:         percentile(lat, 90),
		cpuMsPerQuery: ms(w.sysCPU) / float64(len(ok)),
	}
}

// noteLoad puts a measured run's readings on standard error. They are not
// end-to-end metrics: no time or memory reading of the load holds a 0.10
// bound on the reference host (README.md, "Noise record"), so a traced run
// reports them, without a bound.
func noteLoad(r *result, w *window, ok []sample) {
	l := measureLoad(w, ok)
	r.notef("%d correct replies in %.2f s; the sample supports p%g", len(ok), w.seconds(), tailPercentile(len(ok)))
	r.notef("qps %.2f, latency p50 %.2f ms, p90 %.2f ms, cpu %.2f ms/query, rss %.1f MB; calibration kernel %.0f us",
		l.qps, l.p50Ms, l.p90Ms, l.cpuMsPerQuery, w.rssWarmMB, float64(w.calib)/float64(time.Microsecond))
}

// httpWindow runs the closed-loop clients against a prefserve process.
func httpWindow(srv *serverProc, wl workload, seed int64, warmup, dur time.Duration) (*window, error) {
	p := probes{
		rssMB:   func() (float64, error) { return procMemMB(srv.pid(), "VmRSS") },
		cpu:     func() (time.Duration, error) { return procCPU(srv.pid()) },
		metrics: srv.metrics,
	}
	next := func(c int) func() sample {
		hc, seq := newHTTPClient(), newQuerySeq(wl.mix, seed, c)
		return func() sample { return doQuery(hc, srv.base, seq.next()) }
	}
	return runWindow(clients, warmup, dur, p, next, nil)
}

// coldStarts starts prefserve n times, killing all but the last, and
// returns that server with the cold-start times in seconds.
func coldStarts(cfg config, wl workload, n int) (*serverProc, []float64, error) {
	var srv *serverProc
	var secs []float64
	for i := 0; i < n; i++ {
		if srv != nil {
			srv.kill()
		}
		var err error
		if srv, err = startServer(cfg.serverBin, cfg.scale.sf(wl), cfg.seed, wl.variant); err != nil {
			return nil, nil, err
		}
		secs = append(secs, srv.coldStart.Seconds())
	}
	return srv, secs, nil
}

// runHTTPMeasured is the --trace 0 run of an HTTP workload: cold starts,
// one window with tracing off, then — the server gone — the in-process
// twin for the oracle check, and the count pass on the countSeed data.
func runHTTPMeasured(cfg config, wl workload) (*result, error) {
	r := newResult(wl)
	srv, starts, err := coldStarts(cfg, wl, cfg.scale.coldStarts)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	r.set("setup_s", median(starts))
	r.notef("cold starts %.3f s", starts)

	w, err := httpWindow(srv, wl, cfg.seed, cfg.scale.warmup, cfg.window)
	if err != nil {
		return nil, err
	}
	srv.kill()

	ds, want, ok, err := checkHTTPWindow(r, cfg, wl, w)
	if err != nil {
		return nil, err
	}
	noteLoad(r, w, ok)

	if cfg.seed != countSeed {
		if ds, want, err = buildTwin(cfg.scale.sf(wl), countSeed, wl); err != nil {
			return nil, err
		}
	}
	if err := countPass(r, ds, wl.mix, want); err != nil {
		return nil, err
	}
	return r, nil
}

// buildTwin builds the in-process twin of a prefserve's data and asks the
// single-node oracle for the digest of every query of the mix.
func buildTwin(sf float64, seed int64, wl workload) (*dataset, map[string]digest, error) {
	ds, err := buildDataset(sf, seed, wl.variant)
	if err != nil {
		return nil, nil, err
	}
	or, err := newOracle(ds.t)
	if err != nil {
		return nil, nil, err
	}
	want, err := or.expectAll(wl.mix)
	if err != nil {
		return nil, nil, err
	}
	return ds, want, nil
}

// checkHTTPWindow checks every reply against the oracle, warm-up and the
// replies that straddle an edge of the measured interval included. It
// returns the server's twin, the oracle's digests and the correct replies
// of the measured interval.
func checkHTTPWindow(r *result, cfg config, wl workload, w *window) (*dataset, map[string]digest, []sample, error) {
	ds, want, err := buildTwin(cfg.scale.sf(wl), cfg.seed, wl)
	if err != nil {
		return nil, nil, nil, err
	}
	checkSamples(r, w.outside, false, byQuery(want))
	ok := checkSamples(r, w.measured, true, byQuery(want))
	r.Attempted = len(w.measured)
	if len(ok) == 0 {
		return nil, nil, nil, fmt.Errorf("%s: no correct reply inside the window", wl.name)
	}
	return ds, want, ok, nil
}

// newInprocServer wraps a dataset in a serve.Server configured as
// prefserve configures its own.
func newInprocServer(ds *dataset) (*serve.Server, error) {
	return serve.NewServer(serve.Options{
		PDB:           ds.pdb,
		Config:        ds.cfg,
		Queries:       ds.queries(),
		Tenants:       []serve.TenantConfig{{Name: tenant, Weight: 1}},
		MaxConcurrent: 8,
	})
}

// submit sends one in-process query under the given deadline.
func submit(srv *serve.Server, query string, timeout time.Duration) (*serve.Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return srv.Submit(ctx, tenant, query)
}

// shipTally accumulates the paper's currency over a fixed query sequence
// on fixed data. One client, no pacing, no tracing: the sums repeat bit for
// bit, from run to run and from seed to seed.
type shipTally struct {
	queries int
	bytes   int64
	sim     time.Duration
}

func (t *shipTally) add(st engine.Stats) {
	t.queries++
	t.bytes += st.BytesShipped
	t.sim += engine.DefaultCostModel().Simulate(st)
}

func (t *shipTally) report(r *result) {
	r.set("shipped_mb_per_query", float64(t.bytes)/1e6/float64(t.queries))
	r.set("sim_ms_per_query", ms(t.sim)/float64(t.queries))
}

// countPass runs each mix query once through an in-process server over
// the partitioned twin and reads the engine's own counters.
func countPass(r *result, ds *dataset, mix []string, want map[string]digest) error {
	srv, err := newInprocServer(ds)
	if err != nil {
		return err
	}
	defer srv.Close(context.Background())
	var tally shipTally
	for _, q := range mix {
		resp, err := submit(srv, q, httpTimeout)
		if err != nil {
			return fmt.Errorf("count pass: %s: %w", q, err)
		}
		if d := digestRows(resp.Rows); d != want[q] {
			r.Correct = false
			r.notef("FAIL: count pass %s: digest %+v, oracle %+v", q, d, want[q])
		}
		tally.add(resp.Stats)
	}
	tally.report(r)
	r.set("stored_ratio", ds.storedRatio())
	return nil
}
