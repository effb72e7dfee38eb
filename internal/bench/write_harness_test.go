package bench

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"pref/internal/bulkload"
	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/cluster"
	"pref/internal/engine"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/value"
)

// Mixed OLTP/OLAP soak: a crash-injected write stream races concurrent
// analytical readers on one store. The writer applies seeded
// insert/update/delete batches through the bulkload intent log while
// fault injection crashes batches mid-write; every crash is recovered
// before the stream continues. Readers execute aggregate and join
// queries concurrently and each result must equal, bit for bit, the
// logical oracle at the query's pinned epoch — snapshot isolation means
// a racing or crashed batch can shift WHICH epoch a query reads, never
// WHAT an epoch contains. After the stream drains, the store must pass
// the full write-invariant check (check.VerifyStore).

// writeChainSchema is the three-table PREF chain the soak writes into:
// lineitem seeds by hash, orders co-partitions with lineitem, customer
// co-partitions with orders.
func writeChainSchema() *catalog.Schema {
	s := catalog.NewSchema("mixed")
	s.MustAddTable(catalog.MustTable("customer",
		[]catalog.Column{{Name: "custkey", Kind: value.Int}, {Name: "nation", Kind: value.Int}}, "custkey"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "custkey", Kind: value.Int}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}}, "linekey"))
	return s
}

func writeChainConfig(parts int) *partition.Config {
	cfg := partition.NewConfig(parts)
	cfg.SetHash("lineitem", "linekey")
	cfg.SetPref("orders", "lineitem", []string{"orderkey"}, []string{"orderkey"})
	cfg.SetPref("customer", "orders", []string{"custkey"}, []string{"custkey"})
	return cfg
}

func writeChainDB(s *catalog.Schema) *table.Database {
	db := table.NewDatabase(s)
	for c := int64(0); c < 8; c++ {
		db.Tables["customer"].MustAppend(value.Tuple{c, c % 5})
	}
	for o := int64(0); o < 16; o++ {
		db.Tables["orders"].MustAppend(value.Tuple{o, o % 8})
	}
	for l := int64(0); l < 32; l++ {
		db.Tables["lineitem"].MustAppend(value.Tuple{l, l % 16})
	}
	return db
}

// writeMixedOps is the deterministic logical write stream: one batch per
// index mixing leaf updates and deletes, referencing-side orphan
// inserts, referenced-side inserts (which widen partition indexes under
// the documented insert-order slack), and multi-op seed inserts with
// fresh keys. The shape deliberately stays inside the loader's
// maintained semantics: customer is the chain leaf (deletable), new
// orders and lineitems use keys no referencing tuple depends on — new
// orders carry custkeys disjoint from every customer (past or future),
// since the write path deliberately does not cascade referencing copies
// when a referenced-side insert widens a partition index.
func writeMixedOps(b int) []bulkload.Op {
	switch {
	case b%7 == 3:
		return []bulkload.Op{bulkload.Update("customer",
			[]string{"custkey"}, value.Tuple{int64(b % 8)}, "nation", int64(b))}
	case b%11 == 5:
		return []bulkload.Op{bulkload.Delete("customer",
			[]string{"custkey"}, value.Tuple{int64((b * 3) % 8)})}
	case b%3 == 0:
		return []bulkload.Op{bulkload.Insert("orders", value.Tuple{int64(1000 + b), int64(500 + b)})}
	case b%3 == 1:
		return []bulkload.Op{bulkload.Insert("customer", value.Tuple{int64(100 + b), int64(b % 8)})}
	default:
		return []bulkload.Op{
			bulkload.Insert("lineitem", value.Tuple{int64(2000 + b), int64(3000 + b)}),
			bulkload.Insert("lineitem", value.Tuple{int64(2500 + b), int64(3000 + b)}),
		}
	}
}

// mixedMirror is the logical oracle state: each table keyed by its
// primary key (the stream only ever writes unique primaries).
type mixedMirror struct {
	customer map[int64]value.Tuple
	orders   map[int64]value.Tuple
	lineitem map[int64]value.Tuple
}

func newMixedMirror(db *table.Database) *mixedMirror {
	m := &mixedMirror{
		customer: map[int64]value.Tuple{},
		orders:   map[int64]value.Tuple{},
		lineitem: map[int64]value.Tuple{},
	}
	for _, r := range db.Tables["customer"].Rows {
		m.customer[r[0]] = r.Clone()
	}
	for _, r := range db.Tables["orders"].Rows {
		m.orders[r[0]] = r.Clone()
	}
	for _, r := range db.Tables["lineitem"].Rows {
		m.lineitem[r[0]] = r.Clone()
	}
	return m
}

func (m *mixedMirror) apply(ops []bulkload.Op) {
	for _, op := range ops {
		switch op.Kind {
		case bulkload.OpInsert:
			switch op.Table {
			case "customer":
				m.customer[op.Row[0]] = op.Row.Clone()
			case "orders":
				m.orders[op.Row[0]] = op.Row.Clone()
			case "lineitem":
				m.lineitem[op.Row[0]] = op.Row.Clone()
			}
		case bulkload.OpDelete:
			delete(m.customer, op.Vals[0])
		case bulkload.OpUpdate:
			if r, ok := m.customer[op.Vals[0]]; ok {
				r[1] = op.SetVal
			}
		}
	}
}

// expected computes the oracle result rows for every reader query at the
// mirror's current logical state.
func (m *mixedMirror) expected() [][]value.Tuple {
	agg := func(rows map[int64]value.Tuple, col int) []value.Tuple {
		var cnt, sum int64
		for _, r := range rows {
			cnt++
			sum += r[col]
		}
		return []value.Tuple{{cnt, sum}}
	}
	var pairs int64
	for _, o := range m.orders {
		if _, ok := m.customer[o[1]]; ok {
			pairs++
		}
	}
	return [][]value.Tuple{
		agg(m.customer, 1),
		agg(m.orders, 1),
		agg(m.lineitem, 1),
		{{pairs}},
	}
}

// mixedQueries builds and rewrites the reader battery once per schedule;
// rewritten plans are safe for concurrent execution.
func mixedQueries(s *catalog.Schema, cfg *partition.Config) ([]*plan.Rewritten, error) {
	qs := []plan.Node{
		plan.Aggregate(plan.Scan("customer", "c"), nil,
			plan.Count("cnt"), plan.Sum(plan.Col("c.nation"), "s")),
		plan.Aggregate(plan.Scan("orders", "o"), nil,
			plan.Count("cnt"), plan.Sum(plan.Col("o.custkey"), "s")),
		plan.Aggregate(plan.Scan("lineitem", "l"), nil,
			plan.Count("cnt"), plan.Sum(plan.Col("l.orderkey"), "s")),
		plan.Aggregate(
			plan.Join(plan.Scan("customer", "c"), plan.Scan("orders", "o"),
				plan.Inner, []string{"c.custkey"}, []string{"o.custkey"}),
			nil, plan.Count("cnt")),
	}
	rws := make([]*plan.Rewritten, len(qs))
	for i, q := range qs {
		rw, err := plan.Rewrite(q, s, cfg, plan.Options{})
		if err != nil {
			return nil, err
		}
		rws[i] = rw
	}
	return rws, nil
}

// epochOracle maps each published epoch to the oracle rows of every
// reader query at that epoch. The writer registers an epoch BEFORE
// applying the batch that publishes it, so a reader can never pin an
// epoch the oracle does not know.
type epochOracle struct {
	mu sync.RWMutex
	m  map[int64][][]value.Tuple
}

func (o *epochOracle) put(epoch int64, exp [][]value.Tuple) {
	o.mu.Lock()
	o.m[epoch] = exp
	o.mu.Unlock()
}

func (o *epochOracle) get(epoch int64) ([][]value.Tuple, bool) {
	o.mu.RLock()
	exp, ok := o.m[epoch]
	o.mu.RUnlock()
	return exp, ok
}

// mixedParams configures one soak schedule.
type mixedParams struct {
	Seed       int64
	Parts      int
	Batches    int
	Readers    int
	CrashProb  float64 // write-batch crash probability
	RaceProb   float64 // partition-index invalidation race probability
	ReadFaults bool    // also inject read-side node crashes
}

// mixedOutcome is one schedule's tally.
type mixedOutcome struct {
	Crashes    int
	Recoveries int
	Replays    int64
	Queries    int64
	OKQueries  int64
	TypedFails int64
	WriteAmp   float64
}

// runMixedSchedule executes one seeded crash schedule: a writer thread
// pushing Batches batches through a crash-injected loader (recovering
// every crash in-stream) while Readers goroutines race pinned-epoch
// queries against the same store, each result compared to the logical
// oracle at its epoch. It errors on any untyped failure, oracle
// mismatch, unknown epoch, failed recovery, or a store that does not
// verify after the stream drains.
func runMixedSchedule(mp mixedParams) (*mixedOutcome, error) {
	s := writeChainSchema()
	cfg := writeChainConfig(mp.Parts)
	db := writeChainDB(s)
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		return nil, err
	}
	rws, err := mixedQueries(s, cfg)
	if err != nil {
		return nil, err
	}
	mirror := newMixedMirror(db)
	oracle := &epochOracle{m: map[int64][][]value.Tuple{}}
	oracle.put(pdb.Epoch(), mirror.expected())

	l := bulkload.NewLoader(pdb, cfg)
	l.Faults = fault.NewInjector(fault.Policy{
		Seed: mp.Seed, WriteCrashProb: mp.CrashProb, WriteIndexRaceProb: mp.RaceProb,
	})
	cl := cluster.New(cluster.Options{Nodes: mp.Parts})
	defer cl.Close()

	var readPol *fault.Policy
	if mp.ReadFaults {
		readPol = &fault.Policy{Seed: mp.Seed + 7, CrashProb: 0.08, MaxAttempts: 4}
	}

	out := &mixedOutcome{}
	var queries, okQ, typed int64
	var firstErr error
	var errMu sync.Mutex
	record := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < mp.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				q := (r + i) % len(rws)
				res, err := engine.ExecuteCtx(context.Background(), rws[q], pdb,
					engine.ExecOptions{Cluster: cl, Fault: readPol})
				atomic.AddInt64(&queries, 1)
				switch {
				case err == nil:
					exp, ok := oracle.get(res.Epoch)
					if !ok {
						record(fmt.Errorf("reader %d query %d: pinned epoch %d has no oracle", r, q, res.Epoch))
						return
					}
					if !reflect.DeepEqual(res.Rows, exp[q]) {
						record(fmt.Errorf("reader %d query %d at epoch %d: rows %v, oracle %v",
							r, q, res.Epoch, res.Rows, exp[q]))
						return
					}
					atomic.AddInt64(&okQ, 1)
				case typedFailure(err):
					atomic.AddInt64(&typed, 1)
				default:
					record(fmt.Errorf("reader %d query %d: untyped failure: %w", r, q, err))
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(r)
	}

	for b := 0; b < mp.Batches; b++ {
		// Yield between batches so reader goroutines genuinely interleave
		// with the write stream instead of racing only its tail.
		runtime.Gosched()
		ops := writeMixedOps(b)
		mirror.apply(ops)
		next := pdb.Epoch() + 1
		oracle.put(next, mirror.expected())
		_, err := l.Apply(ops...)
		switch {
		case err == nil:
		case errors.Is(err, fault.ErrWriteCrashed):
			out.Crashes++
			// The store is torn: further writes must be gated until the
			// intent log is recovered.
			if _, gerr := l.Apply(ops[:1]...); !errors.Is(gerr, bulkload.ErrNeedRecovery) {
				record(fmt.Errorf("batch %d: crashed loader accepted a write: %v", b, gerr))
			}
			if _, rerr := l.Recover(); rerr != nil {
				record(fmt.Errorf("batch %d: recovery failed: %w", b, rerr))
			}
			out.Recoveries++
		default:
			record(fmt.Errorf("batch %d: %w", b, err))
		}
		if firstErr != nil {
			break
		}
		if got := pdb.Epoch(); got != next {
			record(fmt.Errorf("batch %d: epoch %d after apply/recover, want %d", b, got, next))
			break
		}
	}
	close(stop)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Quiesced end-state: the store must verify, and a fault-free rerun
	// of every reader query must equal the oracle at the final epoch.
	if l.NeedsRecovery() {
		return nil, errors.New("loader still torn after the stream drained")
	}
	if err := check.VerifyStore(pdb, cfg); err != nil {
		return nil, fmt.Errorf("store failed write-invariant verification: %w", err)
	}
	final, ok := oracle.get(pdb.Epoch())
	if !ok {
		return nil, fmt.Errorf("final epoch %d has no oracle", pdb.Epoch())
	}
	for q, rw := range rws {
		res, err := engine.ExecuteCtx(context.Background(), rw, pdb, engine.ExecOptions{})
		if err != nil {
			return nil, fmt.Errorf("final query %d: %w", q, err)
		}
		if !reflect.DeepEqual(res.Rows, final[q]) {
			return nil, fmt.Errorf("final query %d: rows %v, oracle %v", q, res.Rows, final[q])
		}
	}

	out.Queries, out.OKQueries, out.TypedFails = queries, okQ, typed
	out.Replays = l.Metrics.Replays
	out.WriteAmp = l.Metrics.Amplification()
	return out, nil
}
