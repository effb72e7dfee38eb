package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pref/internal/catalog"
	"pref/internal/cluster"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/trace"
	"pref/internal/value"
)

// prepared is a partitioned database plus a plan builder, so a sequence of
// queries against one shared cluster runs on the same data the cluster's
// rebuild checks.
type prepared struct {
	db   *table.Database
	cfg  *partition.Config
	pdb  *table.PartitionedDatabase
	mk   func() plan.Node
	popt plan.Options // the rewrite's; zero: without statistics
}

func prepareQuery(t testing.TB, mk func() plan.Node, db *table.Database, cfg *partition.Config) prepared {
	t.Helper()
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return prepared{db: db, cfg: cfg, pdb: pdb, mk: mk}
}

// run rewrites a fresh plan and executes it against the shared pdb.
func (pq prepared) run(t testing.TB, eopt ExecOptions) (*Result, error) {
	t.Helper()
	rw, err := plan.Rewrite(pq.mk(), pq.db.Schema, pq.cfg, pq.popt)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	res, err := ExecuteCtx(context.Background(), rw, pq.pdb, eopt)
	if err != nil {
		return nil, err
	}
	res.SortRows()
	return res, nil
}

// replicatedDB builds a database whose every table is fully replicated, so
// any single node's partitions are rebuildable from survivors.
func replicatedDB(t *testing.T) (*table.Database, *partition.Config) {
	t.Helper()
	s := catalog.NewSchema("r")
	s.MustAddTable(catalog.MustTable("fact",
		[]catalog.Column{{Name: "k", Kind: value.Int}, {Name: "d", Kind: value.Int}}, "k"))
	s.MustAddTable(catalog.MustTable("dim",
		[]catalog.Column{{Name: "d", Kind: value.Int}, {Name: "payload", Kind: value.Int}}, "d"))
	db := table.NewDatabase(s)
	for k := int64(0); k < 40; k++ {
		db.Tables["fact"].MustAppend(value.Tuple{k, k % 5})
	}
	for d := int64(0); d < 5; d++ {
		db.Tables["dim"].MustAppend(value.Tuple{d, 100 + d})
	}
	cfg := partition.NewConfig(4)
	cfg.SetReplicated("fact")
	cfg.SetReplicated("dim")
	return db, cfg
}

// TestBreakerRoutesAroundFlakyNode is the headline breaker property: a
// terminally flaky node fails the first query, trips the breaker, and
// every later query routes around it with zero retry attempts instead of
// re-burning the retry budget.
func TestBreakerRoutesAroundFlakyNode(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["classical"] // customer replicated: recoverable
	mk := func() plan.Node {
		return plan.Aggregate(plan.Scan("customer", "c"), nil,
			plan.Count("cnt"), plan.Sum(plan.Col("c.custkey"), "s"))
	}
	pq := prepareQuery(t, mk, db, cfg)
	clean, err := pq.run(t, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cluster.Options{Nodes: 4, TripAfter: 2, CoolDownQueries: 1000})
	defer cl.Close()
	pol := &fault.Policy{Seed: 7, FlakyNodes: map[int]int{1: 99}}

	// Query 1 discovers the fault the hard way: consecutive crashes trip
	// the breaker mid-query and the unit fails fast with the typed error.
	_, err = pq.run(t, ExecOptions{Fault: pol, Cluster: cl})
	if !errors.Is(err, cluster.ErrNodeTripped) {
		t.Fatalf("query 1 err = %v, want ErrNodeTripped", err)
	}
	if cl.NodeState(1) != cluster.Down {
		t.Fatalf("node 1 state = %v, want down after trip", cl.NodeState(1))
	}
	// Queries 2..4 carry the knowledge forward: the placement routes
	// around node 1 before any unit launches, so zero retries are burned
	// and the replicated table recovers the node's partition.
	for q := 2; q <= 4; q++ {
		res, err := pq.run(t, ExecOptions{Fault: pol, Cluster: cl, Trace: true})
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if !reflect.DeepEqual(res.Rows, clean.Rows) {
			t.Fatalf("query %d: degraded rows differ from clean", q)
		}
		if res.Stats.Retries != 0 {
			t.Fatalf("query %d: Retries = %d, want 0 (breaker already open)", q, res.Stats.Retries)
		}
		if res.Trace.Totals.Retries != 0 {
			t.Fatalf("query %d: trace shows %d retries, want 0", q, res.Trace.Totals.Retries)
		}
	}
	if trips := cl.Stats().Trips; trips != 1 {
		t.Fatalf("Trips = %d, want exactly 1 across the query sequence", trips)
	}
}

// TestBreakerProbeRepairRebuild drives the engine through the full health
// lifecycle: down node tripped at admission, degraded queries, a failed
// half-open probe, a passed probe once the fault heals, a rebuild from
// replication by the probing query, and finally normal service on the
// healed node.
func TestBreakerProbeRepairRebuild(t *testing.T) {
	db, cfg := replicatedDB(t)
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("fact", "f"), plan.Scan("dim", "x"),
			plan.Inner, []string{"f.d"}, []string{"x.d"})
		return plan.Aggregate(j, nil, plan.Count("cnt"), plan.Sum(plan.Col("x.payload"), "s"))
	}
	pq := prepareQuery(t, mk, db, cfg)
	clean, err := pq.run(t, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cluster.Options{Nodes: 4, CoolDownQueries: 1})
	defer cl.Close()
	// Node 1 is down now; the simulated operator replaces it after one
	// failed half-open probe.
	pol := &fault.Policy{Seed: 3, DownNodes: []int{1}, RepairAfterProbes: map[int]int{1: 1}}
	eopt := ExecOptions{Fault: pol, Cluster: cl}

	// Query 1: tripped at admission (a refused connection needs no failed
	// retries), served degraded from replicas.
	res, err := pq.run(t, eopt)
	if err != nil {
		t.Fatalf("query 1: %v", err)
	}
	if !reflect.DeepEqual(res.Rows, clean.Rows) {
		t.Fatal("query 1: degraded rows differ from clean")
	}
	if res.Stats.Retries != 0 || res.Stats.Probes != 0 {
		t.Fatalf("query 1: retries=%d probes=%d, want 0/0", res.Stats.Retries, res.Stats.Probes)
	}
	if cl.NodeState(1) != cluster.Down {
		t.Fatalf("query 1: node 1 = %v, want down", cl.NodeState(1))
	}

	// Query 2: cool-down expired, half-open probe runs and fails (the
	// fault has not healed yet); still served degraded.
	res, err = pq.run(t, eopt)
	if err != nil {
		t.Fatalf("query 2: %v", err)
	}
	if res.Stats.Probes != 1 {
		t.Fatalf("query 2: probes = %d, want 1 failed probe charged", res.Stats.Probes)
	}
	if !reflect.DeepEqual(res.Rows, clean.Rows) {
		t.Fatal("query 2: degraded rows differ from clean")
	}

	// Query 3: the second probe passes (RepairAfterProbes), the node goes
	// recovering and the probing query rebuilds its partitions.
	if _, err = pq.run(t, eopt); err != nil {
		t.Fatalf("query 3: %v", err)
	}
	if cl.NodeState(1) != cluster.Healthy {
		t.Fatalf("after rebuild: node 1 = %v, want healthy", cl.NodeState(1))
	}
	st := cl.Stats()
	if st.Rebuilds != 1 || st.RebuiltRows == 0 {
		t.Fatalf("rebuild stats = %+v, want 1 rebuild with rows", st)
	}

	// Query 4: the healed node serves normally — no failovers, no
	// recovery, byte-identical result.
	res, err = pq.run(t, eopt)
	if err != nil {
		t.Fatalf("query 4: %v", err)
	}
	if !reflect.DeepEqual(res.Rows, clean.Rows) {
		t.Fatal("query 4: healed rows differ from clean")
	}
	if res.Stats.Failovers != 0 || res.Stats.RecoveredRows != 0 || res.Stats.Retries != 0 {
		t.Fatalf("query 4 on healed node: %+v, want no degraded-mode work", res.Stats)
	}
}

// TestHedgingCutsStragglerTail: with a straggling node and hedging on, the
// speculative duplicate finishes long before the straggler's sleep, so the
// query's wall time drops from the straggler delay to the hedge delay.
// Straggler placement is seed-deterministic, so the test scans a few seeds
// for a schedule where a straggler lands on the query and its hedge buddy
// is clean.
func TestHedgingCutsStragglerTail(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["classical"]
	mk := faultQueries()["filter-project"]
	pq := prepareQuery(t, mk, db, cfg)
	clean, err := pq.run(t, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const stragglerDelay = 150 * time.Millisecond
	for seed := int64(1); seed <= 12; seed++ {
		pol := &fault.Policy{Seed: seed, StragglerProb: 0.3, StragglerDelay: stragglerDelay}
		cl := cluster.New(cluster.Options{Nodes: 4, Hedge: cluster.HedgePolicy{
			Enabled:  true,
			MinDelay: time.Millisecond,
			MaxDelay: 2 * time.Millisecond, // cold-start hedge delay
		}})
		start := time.Now()
		res, err := pq.run(t, ExecOptions{Fault: pol, Cluster: cl, Trace: true})
		wall := time.Since(start)
		cl.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(res.Rows, clean.Rows) {
			t.Fatalf("seed %d: hedged rows differ from clean", seed)
		}
		if res.Stats.HedgeWins > res.Stats.Hedges {
			t.Fatalf("seed %d: HedgeWins %d > Hedges %d", seed, res.Stats.HedgeWins, res.Stats.Hedges)
		}
		if res.Stats.Hedges > 0 && res.Stats.HedgeWins >= 1 && wall < stragglerDelay/2 {
			// A straggler was hedged and the duplicate won well before the
			// straggler's sleep elapsed; the trace must surface it.
			if r := res.Trace.Render(trace.RenderOptions{}); !strings.Contains(r, "hedges=") {
				t.Fatalf("seed %d: trace render missing hedge metrics:\n%s", seed, r)
			}
			return
		}
	}
	t.Fatal("no seed in 1..12 produced a won hedge against a straggler")
}

// TestHedgeRaceLoserMetered is the white-box waste-accounting check: a
// racer that completes after the race was claimed discards its rows, is
// charged the CPU it burned on the losing node, and returns the internal
// lost-race sentinel; the racer that claims the race meters a hedge win.
func TestHedgeRaceLoserMetered(t *testing.T) {
	ex := newTestExecutor(4)
	defer ex.cancel()
	unit := func(p int) ([]value.Tuple, int, error) {
		return []value.Tuple{{int64(p)}}, 7, nil
	}
	scan := plan.Scan("t", "t")
	tb := trace.NewBuilder(4, 0)
	top := tb.Begin(scan, trace.KindScan)
	var won atomic.Bool
	won.Store(true) // the sibling already claimed the race
	rows, err := runAttempt(ex, context.Background(), top, 0, 1, 2, true, &won, unit)
	if !errors.Is(err, errHedgeLost) || rows != nil {
		t.Fatalf("loser returned (%v, %v), want (nil, errHedgeLost)", rows, err)
	}
	st := tb.Totals()
	if st.HedgeWastedRows != 7 {
		t.Fatalf("HedgeWastedRows = %d, want the loser's 7 rows of work", st.HedgeWastedRows)
	}
	span := tb.Build(&plan.Rewritten{Root: scan}).Root.Children[0]
	if st.RowsProcessed != 7 || len(span.Nodes) != 1 || span.Nodes[0].Node != 2 || span.Nodes[0].Work != 7 {
		t.Fatalf("loser CPU not charged to node 2: processed=%d cells=%+v",
			st.RowsProcessed, span.Nodes)
	}
	if st.HedgeWins != 0 {
		t.Fatal("a loser must not count as a hedge win")
	}
	won.Store(false) // fresh race: this racer claims it
	rows, err = runAttempt(ex, context.Background(), top, 0, 1, 2, true, &won, unit)
	if err != nil || len(rows) != 1 {
		t.Fatalf("winner returned (%v, %v)", rows, err)
	}
	st = tb.Totals()
	if st.HedgeWins != 1 {
		t.Fatalf("HedgeWins = %d, want 1", st.HedgeWins)
	}
	if st.HedgeWastedRows != 7 {
		t.Fatal("winner must not add hedge waste")
	}
}

// TestHedgeLoserUnwindsOnCancel is the count-based half of
// TestHedgingCutsStragglerTail: a primary still in its straggler sleep when
// the hedge wins must leave runHedged through the race's cancelled context.
// So the unit runs once, on the hedge node, and no hedge waste is charged.
// A racer blind to that context finishes its sleep, runs the unit a second
// time and is metered as waste.
func TestHedgeLoserUnwindsOnCancel(t *testing.T) {
	ex := newTestExecutor(4)
	defer ex.cancel()
	ex.inj = fault.NewInjector(fault.Policy{Seed: 1, StragglerProb: 0.5, StragglerDelay: 2 * time.Second})
	ex.hedgeDelay = time.Millisecond
	const p, en, hn = 1, 1, 2
	op := -1 // an operator whose draw straggles the primary but not the hedge node
	for o := 0; o < 64 && op < 0; o++ {
		if ex.inj.StragglerDelay(o, en) > 0 && ex.inj.StragglerDelay(o, hn) == 0 {
			op = o
		}
	}
	if op < 0 {
		t.Fatal("no operator id straggles node 1 but not node 2")
	}
	var calls atomic.Int32
	unit := func(p int) ([]value.Tuple, int, error) {
		calls.Add(1)
		return []value.Tuple{{int64(p)}}, 7, nil
	}
	scan := plan.Scan("t", "t")
	tb := trace.NewBuilder(4, 0)
	rows, err := runHedged(ex, ex.ctx, tb.Begin(scan, trace.KindScan), op, p, en, hn, unit)
	if err != nil || len(rows) != 1 {
		t.Fatalf("hedged unit returned (%v, %v)", rows, err)
	}
	st := tb.Totals()
	if n := calls.Load(); n != 1 || st.HedgeWastedRows != 0 {
		t.Fatalf("unit ran %d times, hedge waste %d rows: the straggling loser ran its unit after the race was decided, want 1 run and 0 waste",
			n, st.HedgeWastedRows)
	}
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("Hedges=%d HedgeWins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
}

// TestHedgeEverywhereStillCorrect: an immediate hedge delay races a
// duplicate for every unit; results stay byte-identical, the trace law
// checks pass under Verify, and the hedge counters stay consistent.
func TestHedgeEverywhereStillCorrect(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["classical"]
	mk := faultQueries()["filter-project"]
	pq := prepareQuery(t, mk, db, cfg)
	clean, err := pq.run(t, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 5; attempt++ {
		cl := cluster.New(cluster.Options{Nodes: 4, Hedge: cluster.HedgePolicy{
			Enabled:  true,
			MinDelay: time.Nanosecond,
			MaxDelay: time.Nanosecond, // hedge every unit immediately
		}})
		res, err := pq.run(t, ExecOptions{Cluster: cl, Verify: true, Trace: true})
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Rows, clean.Rows) {
			t.Fatal("hedged rows differ from clean")
		}
		if res.Stats.Hedges == 0 {
			t.Fatal("immediate hedge delay launched no hedges")
		}
		if res.Stats.HedgeWins > res.Stats.Hedges {
			t.Fatalf("HedgeWins %d > Hedges %d", res.Stats.HedgeWins, res.Stats.Hedges)
		}
	}
}
