package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"

	"pref/internal/bulkload"
	"pref/internal/check"
	"pref/internal/serve"
	"pref/internal/tpch"
	"pref/internal/value"
)

// Column positions the write stream touches (internal/tpch/schema.go).
const (
	ordersOrderkey   = 0
	lineOrderkey     = 0
	lineLinenumber   = 3
	writeCycle       = 5 // batches per cycle of the write stream
	updateColumn     = "quantity"
	updateValueRange = 50
)

// writeStream is mixed_rw's deterministic TPC-H RF1-style write stream, a
// repeating cycle of five batches: ten new orders, their lineitems, ten
// more orders, their lineitems, then one update of a non-partitioning
// column on a row the cycle inserted.
//
// New rows are clones of seeded picks from the initial data under fresh
// order keys. That keeps the stream inside what the write path maintains
// today: under SD a new order lands with its (existing) customer and its
// lineitems land with the order, and because the template order belongs to
// the same customer, the partsupp and part copies the cloned lineitems
// join with are already in that partition — no referenced-side cascade is
// needed. Deletes are left out: the SD chain rejects them.
//
// The stream is a pure function of (data, seed, number of batches drawn),
// so the oracle replays it by drawing from a second instance.
type writeStream struct {
	rng     *rand.Rand
	orders  []value.Tuple           // templates
	lines   map[int64][]value.Tuple // template lineitems by orderkey
	nextKey int64
	n       int // batches drawn so far

	pending [][2]int64  // (new orderkey, template orderkey) awaiting lineitems
	target  value.Tuple // a lineitem this cycle inserted: the update's row
}

func newWriteStream(t *tpch.TPCH, seed int64) *writeStream {
	w := &writeStream{
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed)),
		orders: t.DB.Tables["orders"].Rows,
		lines:  map[int64][]value.Tuple{},
	}
	for _, l := range t.DB.Tables["lineitem"].Rows {
		w.lines[l[lineOrderkey]] = append(w.lines[l[lineOrderkey]], l)
	}
	for _, o := range w.orders {
		if o[ordersOrderkey] >= w.nextKey {
			w.nextKey = o[ordersOrderkey] + 1
		}
	}
	return w
}

// next draws the stream's next batch: one table, one op kind, as
// Loader.Apply requires.
func (w *writeStream) next() []bulkload.Op {
	step := w.n % writeCycle
	w.n++
	var ops []bulkload.Op
	switch step {
	case 0, 2:
		w.pending = w.pending[:0]
		for i := 0; i < ordersPerOp; i++ {
			tmpl := w.orders[w.rng.Intn(len(w.orders))]
			row := tmpl.Clone()
			row[ordersOrderkey] = w.nextKey
			w.pending = append(w.pending, [2]int64{w.nextKey, tmpl[ordersOrderkey]})
			w.nextKey++
			ops = append(ops, bulkload.Insert("orders", row))
		}
	case 1, 3:
		for _, p := range w.pending {
			for _, tmpl := range w.lines[p[1]] {
				row := tmpl.Clone()
				row[lineOrderkey] = p[0]
				ops = append(ops, bulkload.Insert("lineitem", row))
				w.target = row
			}
		}
	default:
		ops = append(ops, bulkload.Update("lineitem",
			[]string{"orderkey", "linenumber"},
			value.Tuple{w.target[lineOrderkey], w.target[lineLinenumber]},
			updateColumn, int64(1+w.n%updateValueRange)))
	}
	return ops
}

var selfPID = os.Getpid()

// mixedSystem is mixed_rw's system under test: one serve.Server and one
// bulkload.Loader over the same partitioned database, in this process.
type mixedSystem struct {
	ds     *dataset
	srv    *serve.Server
	loader *bulkload.Loader
	stream *writeStream
	setup  time.Duration // tpch.Generate → NewServer returned
}

func startMixed(cfg config, wl workload, seed int64) (*mixedSystem, error) {
	start := time.Now()
	ds, err := buildDataset(cfg.scale.sf(wl), seed, wl.variant)
	if err != nil {
		return nil, err
	}
	srv, err := newInprocServer(ds)
	if err != nil {
		return nil, err
	}
	m := &mixedSystem{ds: ds, srv: srv, loader: bulkload.NewLoader(ds.pdb, ds.cfg), setup: time.Since(start)}
	m.stream = newWriteStream(ds.t, seed)
	return m, nil
}

func (m *mixedSystem) close() { m.srv.Close(context.Background()) }

// read is the closed-loop reader's request.
func (m *mixedSystem) read(query string) sample {
	s := sample{Query: query, Start: time.Now()}
	resp, err := submit(m.srv, query, inprocTimeout)
	s.End = time.Now()
	if err != nil {
		s.Err = err.Error()
		return s
	}
	s.Digest = digestRows(resp.Rows)
	s.Epoch, s.CacheHit, s.ServerLatency = resp.Epoch, resp.CacheHit, resp.Latency
	return s
}

// writeSample is one Loader.Apply call.
type writeSample struct {
	Start, End time.Time
	Err        error
	Commit     *bulkload.Commit
}

// write runs the paced writer until stop: batch i is due at start +
// i×writerPace. A late writer applies at once and does not skip, so the
// stream stays the same sequence whatever the host's speed; latency is
// Apply's own, call to commit.
func (m *mixedSystem) write(stop *atomic.Bool, out *[]writeSample) {
	start := time.Now()
	for i := 0; !stop.Load(); i++ {
		if d := time.Until(start.Add(time.Duration(i) * writerPace)); d > 0 {
			time.Sleep(d)
			if stop.Load() {
				return
			}
		}
		ops := m.stream.next()
		ws := writeSample{Start: time.Now()}
		ws.Commit, ws.Err = m.loader.Apply(ops...)
		ws.End = time.Now()
		*out = append(*out, ws)
	}
}

// window runs reader and writer side by side.
func (m *mixedSystem) window(cfg config, wl workload) (*window, []writeSample, error) {
	p := probes{
		rssMB:   func() (float64, error) { return procMemMB(selfPID, "VmRSS") },
		cpu:     func() (time.Duration, error) { return selfCPU(), nil },
		metrics: func() (serve.Metrics, error) { return m.srv.Metrics(), nil },
	}
	next := func(c int) func() sample {
		seq := newQuerySeq(wl.mix, cfg.seed, c)
		return func() sample { return m.read(seq.next()) }
	}
	var writes []writeSample
	w, err := runWindow(1, cfg.scale.warmup, cfg.window, p, next, func(stop *atomic.Bool) { m.write(stop, &writes) })
	return w, writes, err
}

// verify replays the write stream on a single-node database and compares:
// every reply pinned to every verifyEvery-th epoch (and to the final one)
// is checked against the oracle at that epoch, every other reply against
// the other replies of its (query, epoch), the mix is re-submitted on the
// final state, and the store must pass check.VerifyStore. It returns the
// want function for checkSamples.
func (m *mixedSystem) verify(r *result, wl workload, cfg config, samples []sample) (func(sample) (digest, bool), error) {
	type key struct {
		q string
		e int64
	}
	final := m.ds.pdb.Epoch()
	if int(final) != m.stream.n {
		// Every applied batch publishes exactly one epoch; anything else
		// means a batch failed and the replay below would not line up.
		r.Correct = false
		r.notef("FAIL: %d batches drawn but the store is at epoch %d", m.stream.n, final)
	}
	seen := map[key]digest{}
	asked := map[int64]map[string]bool{}
	for _, s := range samples {
		if s.Err != "" {
			continue
		}
		k := key{s.Query, s.Epoch}
		if d, ok := seen[k]; ok && d != s.Digest {
			r.Correct = false
			r.notef("FAIL: %s at epoch %d answered both %+v and %+v", s.Query, s.Epoch, d, s.Digest)
		}
		seen[k] = s.Digest
		if s.Epoch%verifyEvery == 0 || s.Epoch == final {
			if asked[s.Epoch] == nil {
				asked[s.Epoch] = map[string]bool{}
			}
			asked[s.Epoch][s.Query] = true
		}
	}
	asked[final] = map[string]bool{}
	for _, q := range wl.mix {
		asked[final][q] = true
	}

	or, err := newOracle(m.ds.t)
	if err != nil {
		return nil, err
	}
	loader := bulkload.NewLoader(or.pdb, or.cfg)
	stream := newWriteStream(m.ds.t, cfg.seed)
	want := map[key]digest{}
	for e := int64(0); ; e++ {
		for _, q := range sortedKeys(asked[e]) {
			d, err := or.expect(q)
			if err != nil {
				return nil, err
			}
			want[key{q, e}] = d
		}
		if e == final {
			break
		}
		if _, err := loader.Apply(stream.next()...); err != nil {
			return nil, fmt.Errorf("oracle replay: batch %d: %w", e, err)
		}
	}
	for _, q := range wl.mix {
		s := m.read(q)
		if s.Err != "" || s.Epoch != final || s.Digest != want[key{q, final}] {
			r.Correct = false
			r.notef("FAIL: final state %s: %+v (epoch %d, err %q), oracle %+v", q, s.Digest, s.Epoch, s.Err, want[key{q, final}])
		}
	}
	if err := check.VerifyStore(m.ds.pdb, m.ds.cfg); err != nil {
		r.Correct = false
		r.notef("FAIL: check.VerifyStore: %v", err)
	}
	r.notef("oracle re-executed %d (query, epoch) pairs of %d seen, final epoch %d", len(want), len(seen), final)
	return func(s sample) (digest, bool) {
		d, ok := want[key{s.Query, s.Epoch}]
		return d, ok
	}, nil
}

// writesInWindow keeps the Apply calls that started and finished inside
// the measured interval and counts the failed ones into r and failed.
func writesInWindow(r *result, w *window, writes []writeSample) (ok []writeSample, failed int) {
	for _, ws := range writes {
		if ws.Start.Before(w.from) || ws.End.After(w.to) {
			if ws.Err != nil {
				r.Correct = false
				r.notef("FAIL outside the window: Loader.Apply: %v", ws.Err)
			}
			continue
		}
		r.Attempted++
		if ws.Err != nil {
			r.fail("Loader.Apply: %v", ws.Err)
			failed++
			continue
		}
		ok = append(ok, ws)
	}
	return ok, failed
}

// check verifies everything the system was asked — the window's reads,
// warm-up and straddlers included, and whatever a traced run replayed after it — and
// fills r.Attempted and r.Failed. It returns the correct reads and the
// committed writes of the measured interval, and how many writes failed
// there.
func (m *mixedSystem) check(r *result, wl workload, cfg config, w *window, writes []writeSample, replayed []sample) (ok []sample, okWrites []writeSample, failedWrites int, err error) {
	want, err := m.verify(r, wl, cfg, slices.Concat(w.measured, w.outside, replayed))
	if err != nil {
		return nil, nil, 0, err
	}
	checkSamples(r, w.outside, false, want)
	ok = checkSamples(r, w.measured, true, want)
	checkSamples(r, replayed, true, want)
	r.Attempted = len(w.measured) + len(replayed)
	if len(ok) == 0 {
		return nil, nil, 0, fmt.Errorf("%s: no correct reply inside the window", wl.name)
	}
	okWrites, failedWrites = writesInWindow(r, w, writes)
	return ok, okWrites, failedWrites, nil
}

// mixedCountPass applies countBatches write batches with no pacing and
// runs the read mix after every countEvery-th, reading the engine's
// counters; the stored ratio is taken after the last batch.
func mixedCountPass(r *result, m *mixedSystem, wl workload) error {
	var tally shipTally
	for b := 1; b <= countBatches; b++ {
		if _, err := m.loader.Apply(m.stream.next()...); err != nil {
			return fmt.Errorf("count pass: batch %d: %w", b, err)
		}
		if b%countEvery != 0 {
			continue
		}
		for _, q := range wl.mix {
			resp, err := submit(m.srv, q, inprocTimeout)
			if err != nil {
				return fmt.Errorf("count pass: %s: %w", q, err)
			}
			tally.add(resp.Stats)
		}
	}
	tally.report(r)
	r.set("stored_ratio", m.ds.storedRatio())
	return nil
}

// runMixedMeasured is the --trace 0 run of mixed_rw: cold starts, the
// window on the last one, the oracle replay, then the count pass on a
// fresh system of its own, built from countSeed, so that it starts from the
// same data and epoch every run.
func runMixedMeasured(cfg config, wl workload) (*result, error) {
	r := newResult(wl)
	var starts []float64
	var m *mixedSystem
	// A cold start here takes a quarter of a second, so it is cheap to
	// take more of them than of prefserve.
	for i := 0; i < mixedColdStartsPer*cfg.scale.coldStarts; i++ {
		if m != nil {
			m.close()
			m = nil
		}
		// Every start begins from the same heap: the previous system's
		// garbage collected and its pages handed back, which also makes
		// rss_warm_mb the last system's alone.
		debug.FreeOSMemory()
		var err error
		if m, err = startMixed(cfg, wl, cfg.seed); err != nil {
			return nil, err
		}
		starts = append(starts, m.setup.Seconds())
	}
	defer m.close()
	r.set("setup_s", median(starts))
	r.notef("cold starts %.3f s", starts)

	w, writes, err := m.window(cfg, wl)
	if err != nil {
		return nil, err
	}
	ok, okWrites, _, err := m.check(r, wl, cfg, w, writes, nil)
	if err != nil {
		return nil, err
	}
	noteLoad(r, w, ok)
	r.notef("%d write batches committed inside the window (%.1f/s)", len(okWrites), float64(len(okWrites))/w.seconds())

	cp, err := startMixed(cfg, wl, countSeed)
	if err != nil {
		return nil, err
	}
	defer cp.close()
	if err := mixedCountPass(r, cp, wl); err != nil {
		return nil, err
	}
	return r, nil
}
