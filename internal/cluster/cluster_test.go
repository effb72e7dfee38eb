package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pref/internal/catalog"
	"pref/internal/table"
	"pref/internal/value"
)

// newTestCluster builds a small cluster with deterministic thresholds and
// registers its Close with the test.
func newTestCluster(t *testing.T, opt Options) *Cluster {
	t.Helper()
	if opt.Nodes == 0 {
		opt.Nodes = 4
	}
	c := New(opt)
	t.Cleanup(c.Close)
	return c
}

// testPDB builds a 4-partition database where every row of table "t" is
// stored on two partitions (p and (p+1)%4), so any single node is fully
// rebuildable from survivors.
func testPDB(t *testing.T) *table.PartitionedDatabase {
	t.Helper()
	meta, err := catalog.NewTable("t", []catalog.Column{{Name: "k"}, {Name: "v"}}, "k")
	if err != nil {
		t.Fatal(err)
	}
	pt := table.NewPartitioned(meta, 4)
	for k := 0; k < 20; k++ {
		p := k % 4
		row := value.Tuple{int64(k), int64(100 + k)}
		pt.Parts[p].Append(row, false, false)
		pt.Parts[(p+1)%4].Append(row, true, false)
	}
	pt.OriginalRows = 20
	return &table.PartitionedDatabase{Tables: map[string]*table.Partitioned{"t": pt}, N: 4}
}

// uncoveredPDB stores every row exactly once: losing any node loses data.
func uncoveredPDB(t *testing.T) *table.PartitionedDatabase {
	t.Helper()
	meta, err := catalog.NewTable("t", []catalog.Column{{Name: "k"}}, "k")
	if err != nil {
		t.Fatal(err)
	}
	pt := table.NewPartitioned(meta, 4)
	for k := 0; k < 8; k++ {
		pt.Parts[k%4].Append(value.Tuple{int64(k)}, false, false)
	}
	pt.OriginalRows = 8
	return &table.PartitionedDatabase{Tables: map[string]*table.Partitioned{"t": pt}, N: 4}
}

func TestNilClusterIsDisabled(t *testing.T) {
	var c *Cluster
	v, n, done, err := c.BeginQuery(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Serving) != 0 || n != 0 {
		t.Fatal("nil cluster must return an empty view")
	}
	done()
	c.ReportSuccess(0)
	c.ReportFailure(0)
	if !c.Allow(0) {
		t.Fatal("nil cluster must allow everything")
	}
	if c.NodeState(0) != Healthy {
		t.Fatal("nil cluster nodes are healthy")
	}
	if _, ok := c.HedgeDelay(); ok {
		t.Fatal("nil cluster must not hedge")
	}
	c.ObserveUnit(time.Millisecond)
	c.Close()
}

// TestBreakerTripAndFSM walks healthy → suspect → down on consecutive
// failures and back to healthy on success before the trip.
func TestBreakerTripAndFSM(t *testing.T) {
	c := newTestCluster(t, Options{TripAfter: 3})
	if c.NodeState(2) != Healthy {
		t.Fatal("fresh node must be healthy")
	}
	c.ReportFailure(2)
	if c.NodeState(2) != Suspect {
		t.Fatalf("after 1 failure: %v, want suspect", c.NodeState(2))
	}
	// A success clears the streak.
	c.ReportSuccess(2)
	if c.NodeState(2) != Healthy {
		t.Fatalf("after success: %v, want healthy", c.NodeState(2))
	}
	// Three consecutive failures trip the breaker.
	c.ReportFailure(2)
	c.ReportFailure(2)
	if !c.Allow(2) {
		t.Fatal("suspect node must still serve")
	}
	c.ReportFailure(2)
	if c.NodeState(2) != Down {
		t.Fatalf("after 3 failures: %v, want down", c.NodeState(2))
	}
	if c.Allow(2) {
		t.Fatal("tripped node must not serve")
	}
	if got := c.Stats().Trips; got != 1 {
		t.Fatalf("Trips = %d, want 1", got)
	}
	// Further failures on a down node are no-ops.
	c.ReportFailure(2)
	if got := c.Stats().Trips; got != 1 {
		t.Fatalf("Trips after redundant failure = %d, want 1", got)
	}
	v := c.View()
	if v.Serving[2] || !v.Serving[0] {
		t.Fatal("view must exclude only the tripped node")
	}
}

// TestProbeLifecycleAndRebuild drives the full FSM loop: trip via
// BeginQuery's downNow hook, cool down over completed queries, fail one
// half-open probe, pass the next, rebuild inside the probing query, serve
// again.
func TestProbeLifecycleAndRebuild(t *testing.T) {
	c := newTestCluster(t, Options{CoolDownQueries: 1, TripAfter: 3})
	pdb := testPDB(t)
	downNow := func(n int) bool { return n == 1 }
	probeOK := func(n, probes int) bool { return probes >= 1 } // second probe passes

	// Query 1: node 1 reported down now → tripped without burning retries.
	v, probes, done, err := c.BeginQuery(pdb.Snapshot(), downNow, probeOK)
	if err != nil {
		t.Fatal(err)
	}
	if probes != 0 || v.Serving[1] || c.NodeState(1) != Down {
		t.Fatalf("query 1: probes=%d serving=%v state=%v", probes, v.Serving[1], c.NodeState(1))
	}
	done() // completes query 1: cool-down 1 → 0
	done() // a second call must not tick again

	// Query 2: cool-down expired → half-open probe, which fails.
	v, probes, done, _ = c.BeginQuery(pdb.Snapshot(), downNow, probeOK)
	if probes != 1 || v.Serving[1] {
		t.Fatalf("query 2: probes=%d serving=%v, want a failed probe", probes, v.Serving[1])
	}
	if v.Probes[1] != 1 {
		t.Fatalf("query 2: view probe count = %d, want 1", v.Probes[1])
	}
	done()

	// Query 3: second probe passes → recovering, and the probing query
	// rebuilds the node before BeginQuery returns: its own view already
	// serves node 1 as recovered.
	v, probes, done, _ = c.BeginQuery(pdb.Snapshot(), downNow, probeOK)
	if probes != 1 {
		t.Fatalf("query 3: probes=%d, want 1", probes)
	}
	if !v.Serving[1] || !v.Recovered[1] {
		t.Fatalf("query 3: serving=%v recovered=%v, want both", v.Serving[1], v.Recovered[1])
	}
	if c.NodeState(1) != Healthy {
		t.Fatalf("after rebuild: %v, want healthy", c.NodeState(1))
	}
	done()
	st := c.Stats()
	if st.Probes != 2 || st.Rebuilds != 1 || st.FailedRebuilds != 0 || st.Admitted != 3 {
		t.Fatalf("stats = %+v, want 2 probes, 1 rebuild, 3 queries begun", st)
	}
	if st.RebuiltRows != 10 { // node 1 held 5 primaries + 5 dup copies
		t.Fatalf("RebuiltRows = %d, want 10", st.RebuiltRows)
	}
	if st.RebuiltBytes != 10*2*8 {
		t.Fatalf("RebuiltBytes = %d, want %d", st.RebuiltBytes, 10*2*8)
	}
	// Query 4: the recovered node serves again and downNow is ignored
	// (the view reports it healed so the engine clears injected faults).
	v, _, _, _ = c.BeginQuery(pdb.Snapshot(), downNow, probeOK)
	if !v.Serving[1] || !v.Recovered[1] {
		t.Fatalf("query 4: serving=%v recovered=%v, want both", v.Serving[1], v.Recovered[1])
	}
}

// TestConcurrentProbeRebuild: queries that begin while another query's
// passed probe is rebuilding a node never probe it again and never see it
// serving before the rebuild finished; the prober's own view serves it.
func TestConcurrentProbeRebuild(t *testing.T) {
	c := newTestCluster(t, Options{CoolDownQueries: 1})
	pdb := testPDB(t)
	downNow := func(n int) bool { return n == 1 }
	probeOK := func(int, int) bool { return true }
	_, _, done, _ := c.BeginQuery(pdb.Snapshot(), downNow, probeOK) // trip
	done()

	const queries = 8
	var wg sync.WaitGroup
	errs := make(chan string, 2*queries)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, probes, done, err := c.BeginQuery(pdb.Snapshot(), downNow, probeOK)
			if err != nil {
				errs <- err.Error()
				return
			}
			defer done()
			if v.Serving[1] != v.Recovered[1] {
				errs <- "node 1 serving without being rebuilt"
			}
			if probes == 1 && !v.Serving[1] {
				errs <- "the probing query's view does not serve the rebuilt node"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := c.Stats()
	if st.Probes != 1 || st.Rebuilds != 1 || st.RebuiltRows != 10 || c.NodeState(1) != Healthy {
		t.Fatalf("stats = %+v, state %v: want exactly one probe and one rebuild of 10 rows, node healthy",
			st, c.NodeState(1))
	}
}

// TestRebuildUnrecoverable: a node whose partition has no surviving copy
// stays down for good, marked lost, and is never probed again.
func TestRebuildUnrecoverable(t *testing.T) {
	c := newTestCluster(t, Options{CoolDownQueries: 1})
	pdb := uncoveredPDB(t)
	downNow := func(n int) bool { return n == 2 }
	probeOK := func(int, int) bool { return true }

	_, _, done, _ := c.BeginQuery(pdb.Snapshot(), downNow, probeOK) // trip
	done()
	_, _, done, _ = c.BeginQuery(pdb.Snapshot(), downNow, probeOK) // probe passes → rebuild attempt
	if c.NodeState(2) != Down {
		t.Fatalf("unrecoverable node state = %v, want down", c.NodeState(2))
	}
	st := c.Stats()
	if st.FailedRebuilds != 1 || st.Rebuilds != 0 {
		t.Fatalf("stats = %+v, want exactly 1 failed rebuild", st)
	}
	// No further probes: the node is lost, not cooling down.
	done()
	if _, probes, _, _ := c.BeginQuery(pdb.Snapshot(), downNow, probeOK); probes != 0 {
		t.Fatal("lost node must not be probed again")
	}
}

// TestRebuildReadsPublishedEpoch: a write batch that crashed mid-apply
// leaves node 1's head partition torn, and no recovery has run. Tripping,
// probing and rebuilding node 1 must still meter exactly the rows the
// published version holds for it, never the head's.
func TestRebuildReadsPublishedEpoch(t *testing.T) {
	c := newTestCluster(t, Options{CoolDownQueries: 1})
	pdb := testPDB(t)
	pdb.Snapshot() // publish epoch 0
	// The crashed batch: one row fully applied to node 1's clone, the next
	// one's values without their index entries.
	part := pdb.Tables["t"].BeginWrite(1)
	part.Append(value.Tuple{20, 120}, false, false)
	part.AppendTorn(value.Tuple{21, 121})
	if part.CheckInvariants() == nil {
		t.Fatal("setup: node 1's head partition should be torn")
	}

	downNow := func(n int) bool { return n == 1 }
	probeOK := func(int, int) bool { return true }
	_, _, done, _ := c.BeginQuery(pdb.Snapshot(), downNow, probeOK) // trip
	done()
	_, _, done, _ = c.BeginQuery(pdb.Snapshot(), downNow, probeOK) // probe passes → rebuild
	done()
	if c.NodeState(1) != Healthy {
		t.Fatalf("after rebuild: %v, want healthy", c.NodeState(1))
	}
	st := c.Stats()
	if st.Rebuilds != 1 || st.RebuiltRows != 10 || st.RebuiltBytes != 10*2*8 {
		t.Fatalf("rebuilds=%d rows=%d bytes=%d, want 1 rebuild of the published 10 rows (%d bytes)",
			st.Rebuilds, st.RebuiltRows, st.RebuiltBytes, 10*2*8)
	}
}

// TestHedgeDelayPricing: cold histogram → MaxDelay; warm histogram →
// clamp(2 × p95, Min, Max).
func TestHedgeDelayPricing(t *testing.T) {
	c := newTestCluster(t, Options{Hedge: HedgePolicy{
		Enabled: true, MinDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond,
	}})
	d, ok := c.HedgeDelay()
	if !ok || d != 100*time.Millisecond {
		t.Fatalf("cold delay = %v ok=%v, want MaxDelay", d, ok)
	}
	for i := 0; i < 100; i++ {
		c.ObserveUnit(3 * time.Millisecond)
	}
	d, ok = c.HedgeDelay()
	if !ok || d != 6*time.Millisecond {
		t.Fatalf("warm delay = %v ok=%v, want 6ms (2 × p95 of 3ms)", d, ok)
	}
	// Clamping at both ends.
	cLow := newTestCluster(t, Options{Hedge: HedgePolicy{
		Enabled: true, MinDelay: 50 * time.Millisecond, MaxDelay: 60 * time.Millisecond,
	}})
	for i := 0; i < hedgeMinSamples; i++ {
		cLow.ObserveUnit(time.Microsecond)
	}
	if d, _ := cLow.HedgeDelay(); d != 50*time.Millisecond {
		t.Fatalf("clamped-low delay = %v, want MinDelay", d)
	}
	off := newTestCluster(t, Options{})
	if _, ok := off.HedgeDelay(); ok {
		t.Fatal("hedging disabled by default")
	}
}

// TestCloseIdempotent: Close is safe to call twice and refuses later
// queries.
func TestCloseIdempotent(t *testing.T) {
	c := New(Options{Nodes: 2})
	c.Close()
	c.Close()
	if _, _, _, err := c.BeginQuery(nil, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("BeginQuery after Close = %v, want ErrClosed", err)
	}
	if st := c.Stats(); st.Rejected != 1 || st.Admitted != 0 {
		t.Fatalf("admitted=%d rejected=%d, want 0/1", st.Admitted, st.Rejected)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Healthy: "healthy", Suspect: "suspect", Down: "down", Recovering: "recovering", State(9): "state(9)",
	} {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
