package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pref/internal/catalog"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/value"
)

// runOnOpts is runOn with explicit execution options, returning the
// execution error instead of failing the test (fault tests assert on it).
func runOnOpts(t testing.TB, mk func() plan.Node, db *table.Database, cfg *partition.Config, popt plan.Options, eopt ExecOptions) (*Result, error) {
	t.Helper()
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := plan.Rewrite(mk(), db.Schema, cfg, popt)
	if err != nil {
		t.Fatalf("rewrite: %v\n%s", err, plan.Format(mk()))
	}
	res, err := ExecuteCtx(context.Background(), rw, pdb, eopt)
	if err != nil {
		return nil, err
	}
	res.SortRows()
	return res, nil
}

// faultQueries is a battery spanning every operator family: scans, filters,
// projections, co-located and shuffled joins, partial/final aggregation,
// hasRef semi/anti rewrites, outer joins, and broadcasts.
func faultQueries() map[string]func() plan.Node {
	return map[string]func() plan.Node{
		"filter-project": func() plan.Node {
			f := plan.Filter(plan.Scan("orders", "o"), plan.Lt(plan.Col("o.custkey"), plan.Lit(3)))
			return plan.ProjectCols(f, "o.orderkey", "o.custkey")
		},
		"join-case2": func() plan.Node {
			j := plan.Join(plan.Scan("lineitem", "l"), plan.Scan("orders", "o"),
				plan.Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
			return plan.ProjectCols(j, "l.linekey", "o.orderkey", "o.custkey")
		},
		"fig3-agg": func() plan.Node {
			j := plan.Join(plan.Scan("orders", "o"), plan.Scan("customer", "c"),
				plan.Inner, []string{"o.custkey"}, []string{"c.custkey"})
			return plan.Aggregate(j, []string{"c.name"}, plan.Sum(plan.Col("o.total"), "revenue"))
		},
		"three-way-agg": func() plan.Node {
			lo := plan.Join(plan.Scan("lineitem", "l"), plan.Scan("orders", "o"),
				plan.Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
			loc := plan.Join(lo, plan.Scan("customer", "c"),
				plan.Inner, []string{"o.custkey"}, []string{"c.custkey"})
			return plan.Aggregate(loc, []string{"c.custkey"},
				plan.Count("n"), plan.Sum(plan.Col("l.qty"), "qty"))
		},
		"keyed-join": func() plan.Node {
			l := plan.Filter(plan.Scan("lineitem", "l"), plan.Lt(plan.Col("l.qty"), plan.Lit(1)))
			j := plan.Join(l, plan.Scan("orders", "o"), plan.Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
			return plan.ProjectCols(j, "l.linekey", "o.orderkey", "o.custkey")
		},
		"global-agg": func() plan.Node {
			return plan.Aggregate(plan.Scan("customer", "c"), nil,
				plan.Count("cnt"), plan.Min(plan.Col("c.custkey"), "lo"), plan.Max(plan.Col("c.custkey"), "hi"))
		},
		"semi": func() plan.Node {
			j := plan.Join(plan.Scan("customer", "c"), plan.Scan("orders", "o"),
				plan.Semi, []string{"c.custkey"}, []string{"o.custkey"})
			return plan.Aggregate(j, nil, plan.Count("cnt"))
		},
		"anti": func() plan.Node {
			j := plan.Join(plan.Scan("customer", "c"), plan.Scan("orders", "o"),
				plan.Anti, []string{"c.custkey"}, []string{"o.custkey"})
			return plan.Aggregate(j, nil, plan.Count("cnt"))
		},
		"left-outer": func() plan.Node {
			j := plan.Join(plan.Scan("customer", "c"), plan.Scan("orders", "o"),
				plan.LeftOuter, []string{"c.custkey"}, []string{"o.custkey"})
			return plan.Aggregate(j, []string{"c.custkey"}, plan.CountCol(plan.Col("o.orderkey"), "orders"))
		},
		"theta-broadcast": func() plan.Node {
			j := &plan.JoinNode{
				Left:  plan.Scan("customer", "c"),
				Right: plan.Scan("nation", "n"),
				Type:  plan.Inner,
				Residual: plan.Gt(plan.Col("c.nationkey"),
					plan.Col("n.nationkey")),
			}
			return plan.Aggregate(j, nil, plan.Count("cnt"))
		},
	}
}

// TestFlakyNodeRetriesByteIdentical is the headline resilience property:
// with node 0 crashing the first attempt of every work unit, every query in
// the battery, on every partitioning config, completes byte-identical to
// the fault-free run — paying only retries, never correctness.
func TestFlakyNodeRetriesByteIdentical(t *testing.T) {
	db := testDB(t)
	pol := &fault.Policy{Seed: 1, FlakyNodes: map[int]int{0: 1}}
	for qname, mk := range faultQueries() {
		for cname, cfg := range testConfigs(4) {
			clean, err := runOnOpts(t, mk, db, cfg, plan.Options{}, ExecOptions{})
			if err != nil {
				t.Fatalf("%s/%s clean: %v", qname, cname, err)
			}
			faulty, err := runOnOpts(t, mk, db, cfg, plan.Options{}, ExecOptions{Fault: pol})
			if err != nil {
				t.Fatalf("%s/%s faulty: %v", qname, cname, err)
			}
			if !reflect.DeepEqual(clean.Rows, faulty.Rows) {
				t.Errorf("%s/%s: rows differ under flaky node 0", qname, cname)
			}
			if faulty.Stats.Retries < 1 {
				t.Errorf("%s/%s: Retries = %d, want >= 1", qname, cname, faulty.Stats.Retries)
			}
			if faulty.Stats.WastedRows < 0 {
				t.Errorf("%s/%s: negative WastedRows", qname, cname)
			}
		}
	}
}

// TestSameSeedSameExecution: an execution under a probabilistic fault mix
// is a pure function of the policy — rows AND the full stats block.
func TestSameSeedSameExecution(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["pref-chain"]
	mk := faultQueries()["three-way-agg"]
	pol := &fault.Policy{
		Seed:           99,
		CrashProb:      0.2,
		StragglerProb:  0.3,
		StragglerDelay: 100 * time.Microsecond,
		ShipFailProb:   0.4,
		MaxAttempts:    12,
	}
	clean, err := runOnOpts(t, mk, db, cfg, plan.Options{}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := runOnOpts(t, mk, db, cfg, plan.Options{}, ExecOptions{Fault: pol})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runOnOpts(t, mk, db, cfg, plan.Options{}, ExecOptions{Fault: pol})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Rows, clean.Rows) {
		t.Error("faulty run changed the result")
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Error("same seed produced different rows")
	}
	if r1.Stats != r2.Stats {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", r1.Stats, r2.Stats)
	}
	if r1.Stats.Retries == 0 {
		t.Error("expected some retries under CrashProb=0.2")
	}
}

// TestShipmentFailuresDegradeBytesShipped: a failed exchange attempt's
// bytes hit the wire before the re-send, so BytesShipped must exceed the
// fault-free baseline on some seed (the schedule is seed-deterministic, so
// we scan a few seeds rather than depend on one draw).
func TestShipmentFailuresDegradeBytesShipped(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["pref-chain"]
	mk := faultQueries()["three-way-agg"]
	clean, err := runOnOpts(t, mk, db, cfg, plan.Options{}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		pol := &fault.Policy{Seed: seed, ShipFailProb: 0.6, MaxAttempts: 16}
		res, err := runOnOpts(t, mk, db, cfg, plan.Options{}, ExecOptions{Fault: pol})
		if err != nil {
			continue // this seed exhausted a shipment's retry budget
		}
		if !reflect.DeepEqual(res.Rows, clean.Rows) {
			t.Fatalf("seed %d: shipment retries changed the result", seed)
		}
		if res.Stats.BytesShipped > clean.Stats.BytesShipped {
			if res.Stats.WastedRows == 0 {
				t.Fatal("re-shipment without WastedRows accounting")
			}
			return // degradation observed
		}
	}
	t.Fatal("no seed in 0..19 produced a failed shipment at ShipFailProb=0.6")
}

// recoveryDB builds fact(k,d) hashed on k and dim(d,payload) PREF-partitioned
// by reference on fact's d — so each dim tuple is duplicated onto every
// partition holding a matching fact tuple. With 8 fact keys per d value the
// copies span several partitions: exactly the redundancy recovery exploits.
func recoveryDB(t *testing.T) (*table.Database, *partition.Config) {
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
	cfg.SetHash("fact", "k")
	cfg.SetPref("dim", "fact", []string{"d"}, []string{"d"})
	return db, cfg
}

// coveredPartition returns a partition of pt that is non-empty and whose
// every stored row has an identical copy on some other partition, or -1.
func coveredPartition(pt *table.Partitioned) int {
	for p, part := range pt.Parts {
		if part.Len() == 0 {
			continue
		}
		ok := true
		for _, r := range part.Rows() {
			found := false
			for q, other := range pt.Parts {
				if q == p || found {
					continue
				}
				for _, s := range other.Rows() {
					if reflect.DeepEqual(r, s) {
						found = true
						break
					}
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	return -1
}

// TestCrashedNodeRecoversFromPrefDuplicates: a permanently failed node whose
// dim partition is fully covered by PREF duplicate copies on survivors
// yields a byte-identical result, with the reconstruction visible in stats.
func TestCrashedNodeRecoversFromPrefDuplicates(t *testing.T) {
	db, cfg := recoveryDB(t)
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	down := coveredPartition(pdb.Tables["dim"])
	if down < 0 {
		t.Fatal("precondition: no dim partition is fully covered by surviving duplicates")
	}
	mk := func() plan.Node {
		return plan.ProjectCols(plan.Scan("dim", "x"), "x.d", "x.payload")
	}
	clean, err := runOnOpts(t, mk, db, cfg, plan.Options{}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := runOnOpts(t, mk, db, cfg, plan.Options{},
		ExecOptions{Fault: &fault.Policy{DownNodes: []int{down}}})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !reflect.DeepEqual(clean.Rows, faulty.Rows) {
		t.Errorf("recovered result differs:\ngot:  %v\nwant: %v", faulty.Rows, clean.Rows)
	}
	if faulty.Stats.RecoveredRows == 0 {
		t.Error("RecoveredRows = 0, want > 0")
	}
	if faulty.Stats.Failovers == 0 {
		t.Error("Failovers = 0, want > 0")
	}
	if faulty.Stats.BytesShipped <= clean.Stats.BytesShipped {
		t.Error("recovery shipments should show up in BytesShipped")
	}
}

// TestRecoveryFollowsThePublishedVersion: which copies exist is a fact of
// the published version a query pins, so a write that commits between two
// degraded queries changes what the second one can recover — it must not
// see the index the first one built. Both directions: a committed row with
// no second copy turns a recoverable partition into a typed loss, and the
// commit that adds the copy turns it back, while a write to another table
// leaves the answer alone.
func TestRecoveryFollowsThePublishedVersion(t *testing.T) {
	db, cfg := recoveryDB(t)
	pq := prepareQuery(t, func() plan.Node {
		return plan.ProjectCols(plan.Scan("dim", "x"), "x.d", "x.payload")
	}, db, cfg)
	dim := pq.pdb.Tables["dim"]
	down := coveredPartition(dim)
	if down < 0 {
		t.Fatal("precondition: no dim partition is fully covered by surviving duplicates")
	}
	degraded := ExecOptions{Fault: &fault.Policy{DownNodes: []int{down}}}

	first, err := pq.run(t, degraded)
	if err != nil {
		t.Fatalf("query 1: %v", err)
	}
	if first.Stats.RecoveredRows == 0 {
		t.Fatal("query 1 recovered nothing: the partition was not degraded")
	}

	// A commit to fact publishes no new dim version: same index, same answer.
	pq.pdb.Tables["fact"].BeginWrite(0).Append(value.Tuple{900, 0}, false, false)
	pq.pdb.Commit("fact")
	again, err := pq.run(t, degraded)
	if err != nil {
		t.Fatalf("after a write to fact: %v", err)
	}
	if !reflect.DeepEqual(again.Rows, first.Rows) || again.Stats != first.Stats || again.Epoch != first.Epoch+1 {
		t.Fatalf("a write to another table changed the degraded dim scan:\nfirst %+v epoch %d\nagain %+v epoch %d",
			first.Stats, first.Epoch, again.Stats, again.Epoch)
	}

	// A dim row stored on the lost partition only: unrecoverable from now on.
	orphan := value.Tuple{77, 177}
	dim.BeginWrite(down).Append(orphan, false, false)
	pq.pdb.Commit("dim")
	_, err = pq.run(t, degraded)
	var ple *fault.PartitionLostError
	if !errors.As(err, &ple) {
		t.Fatalf("query after the orphan commit: err = %v, want *fault.PartitionLostError (stale index?)", err)
	}
	if ple.Table != "dim" || ple.Partition != down || ple.MissingRows != 1 {
		t.Fatalf("loss details = %+v, want dim/%d with exactly the orphan missing", ple, down)
	}

	// Committing a second copy on a survivor makes it recoverable again.
	survivor := (down + 1) % pq.pdb.N
	dim.BeginWrite(survivor).Append(orphan, true, false)
	pq.pdb.Commit("dim")
	last, err := pq.run(t, degraded)
	if err != nil {
		t.Fatalf("query after the copy commit: %v", err)
	}
	if last.Stats.RecoveredRows != first.Stats.RecoveredRows+1 {
		t.Fatalf("RecoveredRows = %d, want %d (the first query's plus the orphan)",
			last.Stats.RecoveredRows, first.Stats.RecoveredRows+1)
	}
	found := false
	for _, r := range last.Rows {
		if r[0] == 77 && r[1] == 177 {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovered scan lost the committed row: %v", last.Rows)
	}
}

// TestCrashedNodeRecoversFromReplication: a fully replicated table survives
// any single node loss.
func TestCrashedNodeRecoversFromReplication(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["classical"] // customer and nation replicated
	mk := func() plan.Node {
		return plan.Aggregate(plan.Scan("customer", "c"), nil,
			plan.Count("cnt"), plan.Sum(plan.Col("c.custkey"), "s"))
	}
	clean, err := runOnOpts(t, mk, db, cfg, plan.Options{}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := runOnOpts(t, mk, db, cfg, plan.Options{},
		ExecOptions{Fault: &fault.Policy{DownNodes: []int{2}}})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !reflect.DeepEqual(clean.Rows, faulty.Rows) {
		t.Errorf("recovered result differs: %v vs %v", faulty.Rows, clean.Rows)
	}
	if faulty.Stats.RecoveredRows == 0 {
		t.Error("RecoveredRows = 0, want > 0")
	}
}

// TestUnrecoverablePartitionLost: hash partitioning stores exactly one copy
// of each row, so losing a node loses data — the query must fail with the
// typed partition-loss error, not return silently short results.
func TestUnrecoverablePartitionLost(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["all-hashed"]
	mk := func() plan.Node {
		return plan.ProjectCols(plan.Scan("orders", "o"), "o.orderkey")
	}
	_, err := runOnOpts(t, mk, db, cfg, plan.Options{},
		ExecOptions{Fault: &fault.Policy{DownNodes: []int{1}}})
	if err == nil {
		t.Fatal("expected partition-loss error, got success")
	}
	if !errors.Is(err, fault.ErrPartitionLost) {
		t.Fatalf("err = %v, want ErrPartitionLost", err)
	}
	var ple *fault.PartitionLostError
	if !errors.As(err, &ple) {
		t.Fatalf("err = %v, want *fault.PartitionLostError", err)
	}
	if ple.Table != "orders" || ple.Partition != 1 || ple.MissingRows == 0 {
		t.Fatalf("unexpected loss details: %+v", ple)
	}
}

// TestAllNodesDownRejected: a policy that downs the whole cluster is a
// planning-time error, not a hang.
func TestAllNodesDownRejected(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["all-hashed"]
	mk := faultQueries()["filter-project"]
	_, err := runOnOpts(t, mk, db, cfg, plan.Options{},
		ExecOptions{Fault: &fault.Policy{DownNodes: []int{0, 1, 2, 3}}})
	if err == nil {
		t.Fatal("expected error with all nodes down")
	}
}

// TestQueryTimeoutNoGoroutineLeak: a cluster of stragglers against a short
// deadline surfaces context.DeadlineExceeded, and every worker goroutine
// unwinds (the straggler sleeps and backoffs are context-aware).
func TestQueryTimeoutNoGoroutineLeak(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["pref-chain"]
	mk := faultQueries()["fig3-agg"]
	before := runtime.NumGoroutine()
	_, err := runOnOpts(t, mk, db, cfg, plan.Options{}, ExecOptions{Fault: &fault.Policy{
		StragglerProb:  1,
		StragglerDelay: 200 * time.Millisecond,
		Timeout:        20 * time.Millisecond,
	}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after settle", before, g)
	}
}

// newTestExecutor hand-builds an executor for white-box forEachPart tests.
func newTestExecutor(n int) *executor {
	ctx, cancel := context.WithCancel(context.Background())
	dst := make([]int, n)
	for i := range dst {
		dst[i] = i
	}
	return &executor{n: n, ctx: ctx, cancel: cancel, execDst: dst}
}

// TestForEachPartShortCircuits: the first unit error cancels the query
// context, so a subsequent operator launches zero units.
func TestForEachPartShortCircuits(t *testing.T) {
	ex := newTestExecutor(4)
	defer ex.cancel()
	boom := errors.New("boom")
	var ran int32
	_, err := forEachPart(ex, nil, func(p int) ([]value.Tuple, int, error) {
		atomic.AddInt32(&ran, 1)
		if p == 1 {
			return nil, 0, boom
		}
		return nil, 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the unit error (not context noise)", err)
	}
	var ranAfter int32
	_, err = forEachPart(ex, nil, func(p int) ([]value.Tuple, int, error) {
		atomic.AddInt32(&ranAfter, 1)
		return nil, 0, nil
	})
	if err == nil {
		t.Fatal("post-cancel operator should fail")
	}
	if n := atomic.LoadInt32(&ranAfter); n != 0 {
		t.Fatalf("post-cancel operator launched %d units, want 0", n)
	}
}

// TestPanicRecoveredToError: a panicking unit fails the query with a
// descriptive error instead of crashing the process.
func TestPanicRecoveredToError(t *testing.T) {
	ex := newTestExecutor(2)
	defer ex.cancel()
	_, err := forEachPart(ex, nil, func(p int) ([]value.Tuple, int, error) {
		if p == 1 {
			panic("operator bug")
		}
		return nil, 0, nil
	})
	if err == nil {
		t.Fatal("expected error from panicking unit")
	}
	if got := err.Error(); !contains(got, "recovered panic") || !contains(got, "operator bug") {
		t.Fatalf("err = %q, want recovered-panic message", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFailoverExecutesOnBuddy: work for a down node runs on its ring buddy
// and is counted as a failover.
func TestFailoverExecutesOnBuddy(t *testing.T) {
	dst, err := buddyMap(4, []bool{false, true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 3, 3, 3}; !reflect.DeepEqual(dst, want) {
		t.Fatalf("buddyMap = %v, want %v", dst, want)
	}
	if _, err := buddyMap(2, []bool{true, true}); err == nil {
		t.Fatal("buddyMap must reject a fully failed cluster")
	}
}
