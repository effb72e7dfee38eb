package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"pref/internal/plan"
)

// TestNilSafety pins the no-branch contract white-box engine tests rely
// on: every mutator and Begin/Build must be a no-op on nil receivers, so
// recording sites need no sink-present checks.
func TestNilSafety(t *testing.T) {
	var b *Builder
	op := b.Begin(plan.Scan("t", "t"), KindScan)
	if op != nil {
		t.Fatal("nil builder must hand out nil ops")
	}
	if r := b.BeginResult(); r != nil {
		t.Fatal("nil builder must hand out a nil result op")
	}
	if tr := b.Build(nil); tr != nil {
		t.Fatal("nil builder must build a nil trace")
	}
	// All mutators on the nil op: must not panic.
	op.AddIn(0, 1)
	op.AddOut(0, 1)
	op.AddShip(0, 1, 16)
	op.AddFiltered(0, 1)
	op.AddDedup(0, 1)
	op.AddWork(0, 1)
	op.AddRetry(0, 1)
	op.AddFailover(0)
	op.AddRecovered(0, 1)
	op.AddWall(0, time.Second)
	op.SetReadOne()
	var tr *Trace
	tr.Walk(func(*OpTrace) { t.Fatal("nil trace must not visit") })
	if tr.Render(RenderOptions{}) != "" {
		t.Fatal("nil trace must render empty")
	}
}

// TestBuilderAssemblesTree executes the recording protocol by hand over a
// two-operator plan and checks the finished tree: shape, ids, props,
// per-node cell filtering, and rollups.
func TestBuilderAssemblesTree(t *testing.T) {
	scan := plan.Scan("t", "t")
	filter := plan.Filter(scan, plan.Gt(plan.Col("t.c"), plan.Lit(1)))
	rw := &plan.Rewritten{Root: filter, Props: map[plan.Node]*plan.Prop{}}

	b := NewBuilder(3, 0)
	sop := b.Begin(scan, KindScan)
	if again := b.Begin(scan, KindScan); again != sop {
		t.Fatal("Begin must be idempotent per plan node")
	}
	fop := b.Begin(filter, KindFilter)
	sop.AddOut(0, 10)
	sop.AddOut(2, 5) // node 1 stays silent: its cell must be filtered out
	fop.AddIn(0, 10)
	fop.AddIn(2, 5)
	fop.AddOut(0, 7)
	fop.AddOut(2, 2)
	fop.AddWork(0, 10)
	fop.AddWork(2, 5)
	rtop := b.BeginResult()
	rtop.AddIn(0, 9)
	rtop.AddOut(0, 9)
	tr := b.Build(rw)

	if tr.N != 3 {
		t.Fatalf("N = %d", tr.N)
	}
	if tr.Root.Kind != KindResult || len(tr.Root.Children) != 1 {
		t.Fatalf("root must be the synthetic Result with one child, got %+v", tr.Root)
	}
	f := tr.Root.Children[0]
	if f.Kind != KindFilter || len(f.Children) != 1 || f.Children[0].Kind != KindScan {
		t.Fatalf("tree shape wrong: %+v", f)
	}
	if f.Totals.RowsIn != 15 || f.Totals.RowsOut != 9 || f.Totals.Work != 15 {
		t.Fatalf("filter rollup wrong: %+v", f.Totals)
	}
	if len(f.Nodes) != 2 || f.Nodes[0].Node != 0 || f.Nodes[1].Node != 2 {
		t.Fatalf("silent node cell must be dropped, got %+v", f.Nodes)
	}
	if tr.Totals.RowsProcessed != 15 || tr.Totals.MaxNodeRows != 10 {
		t.Fatalf("totals not summed from the cells: %+v", tr.Totals)
	}
	// Distinct ops get distinct ids.
	seen := map[int]bool{}
	tr.Walk(func(ot *OpTrace) {
		if seen[ot.ID] {
			t.Fatalf("duplicate span id %d", ot.ID)
		}
		seen[ot.ID] = true
	})
}

// TestBuildMarksUnexecuted: a plan operator the engine never opened must
// surface as KindUnexecuted (check.VerifyTrace turns that into a shape
// violation), never be silently dropped.
func TestBuildMarksUnexecuted(t *testing.T) {
	scan := plan.Scan("t", "t")
	filter := plan.Filter(scan, plan.Gt(plan.Col("t.c"), plan.Lit(1)))
	rw := &plan.Rewritten{Root: filter, Props: map[plan.Node]*plan.Prop{}}
	b := NewBuilder(2, 0)
	b.Begin(filter, KindFilter) // scan never begun
	tr := b.Build(rw)
	if got := tr.Root.Children[0].Children[0].Kind; got != KindUnexecuted {
		t.Fatalf("unopened scan has kind %q, want %q", got, KindUnexecuted)
	}
}

// TestConcurrentMutators hammers one op from many goroutines (run under
// -race in CI) and checks the additive counters survive exactly.
func TestConcurrentMutators(t *testing.T) {
	b := NewBuilder(4, 0)
	scan := plan.Scan("t", "t")
	op := b.Begin(scan, KindScan)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				op.AddOut(w%4, 1)
				op.AddShip(w%4, 1, 2*8)
				op.AddRetry(w%4, 1)
			}
		}()
	}
	wg.Wait()
	rw := &plan.Rewritten{Root: scan, Props: map[plan.Node]*plan.Prop{}}
	tr := b.Build(rw)
	tot := tr.Root.Children[0].Totals
	if tot.RowsOut != workers*per || tot.RowsShipped != workers*per ||
		tot.BytesShipped != workers*per*2*8 || tot.Retries != workers*per ||
		tot.WastedRows != workers*per {
		t.Fatalf("lost updates: %+v", tot)
	}
	want := Totals{RowsShipped: workers * per, BytesShipped: workers * per * 2 * 8,
		Retries: workers * per, WastedRows: workers * per}
	if got := b.Totals(); got != want || tr.Totals != want {
		t.Fatalf("cell sum = %+v (trace carries %+v), want %+v", got, tr.Totals, want)
	}
}

func TestKindExchange(t *testing.T) {
	for _, k := range []Kind{KindRepartition, KindBroadcast, KindDistinctByValue, KindGather, KindResult} {
		if !k.Exchange() {
			t.Errorf("%s must be an exchange", k)
		}
	}
	for _, k := range []Kind{KindScan, KindFilter, KindProject, KindJoin, KindAggregate,
		KindPartialAgg, KindFinalAgg, KindDistinctPref, KindTopK, KindRuntimeFilter, KindLocalFilter, KindUnexecuted} {
		if k.Exchange() {
			t.Errorf("%s must not be an exchange", k)
		}
	}
}

func TestByteCount(t *testing.T) {
	cases := []struct {
		b    int64
		want string
	}{
		{0, "0B"}, {7, "7B"}, {1024, "1KiB"}, {1536, "1536B"},
		{8 << 10, "8KiB"}, {1 << 20, "1MiB"}, {(1 << 20) + 8, "1048584B"},
	}
	for _, c := range cases {
		if got := byteCount(c.b); got != c.want {
			t.Errorf("byteCount(%d) = %q, want %q", c.b, got, c.want)
		}
	}
}

// TestRenderAndJSON pins the rendering contract: actuals lines under each
// operator, HideWall determinism, node breakdowns only on request, and a
// JSON round-trip that preserves the tree.
func TestRenderAndJSON(t *testing.T) {
	scan := plan.Scan("t", "t")
	rw := &plan.Rewritten{Root: scan, Props: map[plan.Node]*plan.Prop{}}
	b := NewBuilder(2, 0)
	op := b.Begin(scan, KindScan)
	op.AddOut(0, 3)
	op.AddOut(1, 4)
	op.AddWall(0, time.Millisecond)
	rt := b.BeginResult()
	rt.AddIn(0, 7)
	rt.AddShip(1, 7, 7*8)
	rt.AddOut(0, 7)
	tr := b.Build(rw)

	plain := tr.Render(RenderOptions{HideWall: true})
	if !strings.Contains(plain, "Scan(t AS t)") || !strings.Contains(plain, "(in=0 out=7") {
		t.Fatalf("missing operator/actuals lines:\n%s", plain)
	}
	if strings.Contains(plain, "wall") {
		t.Fatalf("HideWall leaked a wall field:\n%s", plain)
	}
	if strings.Contains(plain, "[node") {
		t.Fatalf("node breakdown rendered without Nodes option:\n%s", plain)
	}
	withNodes := tr.Render(RenderOptions{HideWall: true, Nodes: true})
	if !strings.Contains(withNodes, "[node 0:") || !strings.Contains(withNodes, "[node 1:") {
		t.Fatalf("Nodes option must add per-node lines:\n%s", withNodes)
	}
	if !strings.Contains(tr.Render(RenderOptions{}), "query wall:") {
		t.Fatal("default rendering must include query wall time")
	}

	blob, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.N != tr.N || back.Root.Kind != KindResult ||
		back.Root.Children[0].Totals.RowsOut != 7 {
		t.Fatalf("JSON round-trip lost data: %+v", back.Root)
	}
}
