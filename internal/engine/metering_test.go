package engine

import (
	"context"
	"reflect"
	"testing"
	"time"

	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/trace"
	"pref/internal/value"
)

// The network meter must be exact: a repartition ships precisely the rows
// whose hash target differs from their source, at 8 bytes per column. Under
// a group-by those rows are the per-partition partial states.
func TestRepartitionMeteringExact(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["all-hashed"]
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Orders are hashed on orderkey; grouping by total repartitions the
	// partial states by total.
	mk := plan.Aggregate(plan.Scan("orders", "o"), []string{"o.total"},
		plan.Count("n"))
	rw, err := plan.Rewrite(mk, db.Schema, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteCtx(context.Background(), rw, pdb, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Expected: one state per (source partition, group) whose
	// hash(orderkey)%4 != hash(total)%4, plus the final gather of group
	// rows from partitions 1..3.
	type state struct {
		src   int
		total int64
	}
	crossing := map[state]bool{}
	groupPart := map[int64]int{}
	for _, r := range db.Tables["orders"].Rows {
		src := int(value.MakeKey1(r[0]).Hash() % 4)
		dst := int(value.MakeKey1(r[2]).Hash() % 4)
		if src != dst {
			crossing[state{src, r[2]}] = true
		}
		groupPart[r[2]] = dst
	}
	if len(crossing) == 0 {
		t.Fatal("degenerate fixture: no partial state crosses a node boundary")
	}
	groupsAway := 0
	for _, p := range groupPart {
		if p != 0 {
			groupsAway++
		}
	}
	// partial state (total, n) and aggregate output are both 2 wide.
	wantBytes := int64(len(crossing))*2*8 + int64(groupsAway)*2*8
	if res.Stats.BytesShipped != wantBytes {
		t.Fatalf("BytesShipped = %d, want %d (crossing=%d, gathered groups=%d)",
			res.Stats.BytesShipped, wantBytes, len(crossing), groupsAway)
	}
	if res.Stats.RowsShipped != int64(len(crossing)+groupsAway) {
		t.Fatalf("RowsShipped = %d, want %d", res.Stats.RowsShipped, len(crossing)+groupsAway)
	}
}

// findSpan returns the first span of the given kind, pre-order.
func findSpan(ot *trace.OpTrace, kind trace.Kind) *trace.OpTrace {
	if ot.Kind == kind {
		return ot
	}
	for _, c := range ot.Children {
		if s := findSpan(c, kind); s != nil {
			return s
		}
	}
	return nil
}

// A grouped aggregate the PREF placement does not cover ships per-partition
// partial states, never its input rows: with g groups on n nodes the
// exchange moves at most (n−1)·g rows of partial-schema width, the result
// equals the single-partition run, and both survive a seeded crash and
// straggler schedule under tracing and verification.
func TestGroupedAggShipsPartialStates(t *testing.T) {
	const n, g = 4, 5 // nodes; nations
	db := testDB(t)
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("orders", "o"), plan.Scan("customer", "c"),
			plan.Inner, []string{"o.custkey"}, []string{"c.custkey"})
		return plan.Aggregate(j, []string{"c.nationkey"},
			plan.Sum(plan.Col("o.total"), "rev"), plan.Avg(plan.Col("o.total"), "avg"),
			plan.Min(plan.Col("o.total"), "lo"), plan.Count("n"))
	}
	want := runOn(t, mk, db, testConfigs(n)["reference-1node"], plan.Options{})
	if len(want.Rows) != g {
		t.Fatalf("fixture drift: %d groups, want %d", len(want.Rows), g)
	}

	cfg := testConfigs(n)["pref-chain"]
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := plan.Rewrite(mk(), db.Schema, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const width = 1 + 5 // group column; SUM, AVG (sum, count), MIN, COUNT states
	for name, pol := range map[string]*fault.Policy{
		"clean": nil,
		"crash+straggler": {Seed: 7, CrashProb: 0.3, StragglerProb: 0.3,
			StragglerDelay: time.Millisecond, MaxAttempts: 16},
	} {
		res, err := ExecuteCtx(context.Background(), rw, pdb, ExecOptions{Fault: pol, Trace: true, Verify: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res.SortRows()
		if !reflect.DeepEqual(res.Rows, want.Rows) {
			t.Errorf("%s: rows differ from the single-partition run\ngot:  %v\nwant: %v", name, res.Rows, want.Rows)
		}
		if pol != nil && res.Stats.Retries == 0 {
			t.Errorf("%s: fault schedule never fired", name)
		}
		rep := findSpan(res.Trace.Root, trace.KindRepartition)
		if rep == nil {
			t.Fatalf("%s: no repartition span:\n%s", name, plan.Format(rw.Root))
		}
		m := rep.Totals
		if m.RowsIn > n*g || m.RowsShipped == 0 || m.RowsShipped > (n-1)*g {
			t.Errorf("%s: exchange consumed %d rows and shipped %d, want at most %d and 1..%d",
				name, m.RowsIn, m.RowsShipped, n*g, (n-1)*g)
		}
		if m.BytesShipped != m.RowsShipped*8*width {
			t.Errorf("%s: exchange shipped %d B for %d rows, want %d B per partial state",
				name, m.BytesShipped, m.RowsShipped, 8*width)
		}
		// Beyond the exchange only the result's own gather ships.
		if res.Stats.RowsShipped > m.RowsShipped+g {
			t.Errorf("%s: RowsShipped = %d, want at most %d", name, res.Stats.RowsShipped, m.RowsShipped+g)
		}
	}
}

// Float-kind partial sums merge in ascending source-partition order, so the
// result bits never depend on map iteration or goroutine timing.
func TestFloatSumTwoPhaseDeterministic(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["pref-chain"]
	seventh := plan.F("seventh", value.Float, []string{"o.total"}, func(v []int64) int64 {
		return value.FromFloat(float64(v[0]) / 7)
	})
	mk := func() plan.Node {
		j := plan.Join(plan.Scan("orders", "o"), plan.Scan("customer", "c"),
			plan.Inner, []string{"o.custkey"}, []string{"c.custkey"})
		return plan.Aggregate(j, []string{"c.nationkey"},
			plan.Sum(seventh, "s"), plan.Avg(seventh, "a"))
	}
	first := runOn(t, mk, db, cfg, plan.Options{})
	if first.Stats.Repartitions != 1 {
		t.Fatalf("fixture drift: %d repartitions, want the two-phase exchange", first.Stats.Repartitions)
	}
	for i := 1; i < 20; i++ {
		if res := runOn(t, mk, db, cfg, plan.Options{}); !reflect.DeepEqual(res.Rows, first.Rows) {
			t.Fatalf("run %d: float sums differ bitwise\ngot:  %v\nwant: %v", i, res.Rows, first.Rows)
		}
	}
}

// A broadcast ships (n−1) copies of every deduplicated build row.
func TestBroadcastMeteringExact(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["all-hashed"]
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := &plan.JoinNode{
		Left:     plan.Scan("customer", "c"),
		Right:    plan.Scan("nation", "n"),
		Type:     plan.Inner,
		Residual: plan.Gt(plan.Col("c.nationkey"), plan.Col("n.nationkey")),
	}
	agg := plan.Aggregate(j, nil, plan.Count("cnt"))
	rw, err := plan.Rewrite(agg, db.Schema, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteCtx(context.Background(), rw, pdb, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// nation: 5 rows × (4−1) copies × 1 col × 8B = 120 bytes for the
	// broadcast; the gathered partials add 4−1 rows × 1 col × 8B = 24.
	want := int64(5*3*1*8 + 3*1*8)
	if res.Stats.BytesShipped != want {
		t.Fatalf("BytesShipped = %d, want %d", res.Stats.BytesShipped, want)
	}
	if res.Stats.Broadcasts != 1 {
		t.Fatalf("Broadcasts = %d", res.Stats.Broadcasts)
	}
}

// Fully local plans ship nothing except the final gather.
func TestLocalPlanShipsNothing(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["pref-chain"]
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := plan.Join(plan.Scan("lineitem", "l"), plan.Scan("orders", "o"),
		plan.Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
	agg := plan.Aggregate(j, nil, plan.Count("n")) // global: partial+gather
	rw, err := plan.Rewrite(agg, db.Schema, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteCtx(context.Background(), rw, pdb, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Only the 3 partial-aggregate rows from partitions 1..3 move.
	if res.Stats.BytesShipped != 3*1*8 {
		t.Fatalf("BytesShipped = %d, want 24 (partials only)", res.Stats.BytesShipped)
	}
	if res.Stats.Repartitions != 0 || res.Stats.Broadcasts != 0 {
		t.Fatalf("local plan ran exchanges: %+v", res.Stats)
	}
}

func TestCostModelComponents(t *testing.T) {
	cm := CostModel{TuplePerSec: 1e6, NetBytesPerSec: 1e8, ExchangeLatency: 5 * time.Millisecond}
	s := Stats{MaxNodeRows: 2_000_000, BytesShipped: 3e8, Repartitions: 2, Broadcasts: 1}
	got := cm.Simulate(s)
	want := 2*time.Second + 3*time.Second + 15*time.Millisecond
	if got != want {
		t.Fatalf("Simulate = %v, want %v", got, want)
	}
	if cm.Simulate(Stats{}) != 0 {
		t.Fatal("empty stats must cost nothing")
	}
}

// The cache-miss penalty applies exactly when the build side exceeds the
// configured cache.
func TestCacheMissPenalty(t *testing.T) {
	db := testDB(t)
	cfg := testConfigs(4)["classical"] // customer replicated (20/node)
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := plan.Join(plan.Scan("orders", "o"), plan.Scan("customer", "c"),
		plan.Inner, []string{"o.custkey"}, []string{"c.custkey"})
	agg := plan.Aggregate(mk, nil, plan.Count("n"))
	rw, err := plan.Rewrite(agg, db.Schema, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fits, err := ExecuteCtx(context.Background(), rw, pdb, ExecOptions{CacheRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	misses, err := ExecuteCtx(context.Background(), rw, pdb, ExecOptions{CacheRows: 5})
	if err != nil {
		t.Fatal(err)
	}
	if misses.Stats.RowsProcessed <= fits.Stats.RowsProcessed {
		t.Fatalf("out-of-cache build must cost more: %d vs %d",
			misses.Stats.RowsProcessed, fits.Stats.RowsProcessed)
	}
}
