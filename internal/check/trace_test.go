package check_test

import (
	"context"
	"testing"

	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/engine"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/trace"
	"pref/internal/value"
)

// traceFixture executes a PREF-chain join+aggregate query with tracing on
// and returns the plan and its (valid) trace. Each corruption test then
// damages one exported field and asserts the matching rule fires —
// VerifyTrace must be able to tell a recorded trace from a doctored one.
func traceFixture(t *testing.T) (*plan.Rewritten, *trace.Trace) {
	t.Helper()
	s := catalog.NewSchema("tv")
	s.MustAddTable(catalog.MustTable("users",
		[]catalog.Column{{Name: "uid", Kind: value.Int}, {Name: "region", Kind: value.Int}}, "uid"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "oid", Kind: value.Int}, {Name: "uid", Kind: value.Int}, {Name: "qty", Kind: value.Int}}, "oid"))
	db := table.NewDatabase(s)
	for i := int64(0); i < 30; i++ {
		db.Tables["users"].MustAppend(value.Tuple{i, i % 4})
	}
	for i := int64(0); i < 90; i++ {
		db.Tables["orders"].MustAppend(value.Tuple{i, i % 30, i % 7})
	}
	cfg := partition.NewConfig(4)
	cfg.SetHash("orders", "uid")
	cfg.SetPref("users", "orders", []string{"uid"}, []string{"uid"})

	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := plan.Aggregate(
		plan.Join(plan.Scan("users", "u"), plan.Scan("orders", "o"),
			plan.Inner, []string{"u.uid"}, []string{"o.uid"}),
		[]string{"u.region"}, plan.Count("cnt"))
	rw, err := plan.Rewrite(q, s, cfg, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.ExecuteCtx(context.Background(), rw, pdb, engine.ExecOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.VerifyTrace(rw, res.Trace); err != nil {
		t.Fatalf("fixture trace must verify cleanly: %v", err)
	}
	return rw, res.Trace
}

// findSpan returns the first span of the given kind, walking root-first.
func findSpan(tr *trace.Trace, kind trace.Kind) *trace.OpTrace {
	var hit *trace.OpTrace
	tr.Walk(func(ot *trace.OpTrace) {
		if hit == nil && ot.Kind == kind {
			hit = ot
		}
	})
	return hit
}

func assertRule(t *testing.T, err error, rule check.Rule) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption not detected, want rule %s", rule)
	}
	if !check.ViolationsOf(err).HasRule(rule) {
		t.Fatalf("got %v, want a %s violation", err, rule)
	}
}

func TestVerifyTraceRejectsMissingTrace(t *testing.T) {
	rw, _ := traceFixture(t)
	assertRule(t, check.VerifyTrace(rw, nil), check.RuleTraceShape)
	assertRule(t, check.VerifyTrace(rw, &trace.Trace{}), check.RuleTraceShape)
}

func TestVerifyTraceRejectsWrongRoot(t *testing.T) {
	rw, tr := traceFixture(t)
	tr.Root.Kind = trace.KindGather
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceShape)
}

func TestVerifyTraceRejectsUnexecutedSpan(t *testing.T) {
	rw, tr := traceFixture(t)
	findSpan(tr, trace.KindScan).Kind = trace.KindUnexecuted
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceShape)
}

func TestVerifyTraceRejectsIllegalShip(t *testing.T) {
	rw, tr := traceFixture(t)
	// The PREF chain keeps this join local; claiming it shipped rows is
	// exactly the locality regression VerifyTrace exists to catch.
	j := findSpan(tr, trace.KindJoin)
	if j == nil {
		t.Fatal("fixture has no join span")
	}
	if j.Totals.RowsShipped != 0 {
		t.Fatalf("fixture join already ships %d rows", j.Totals.RowsShipped)
	}
	j.Totals.RowsShipped = 10
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceShip)
}

func TestVerifyTraceRejectsInventedRows(t *testing.T) {
	rw, tr := traceFixture(t)
	// A filter (the dup=0 scan filter) or projection emitting more rows
	// than it consumed breaks the intra-operator law; any span works via
	// the edge law, so corrupt the plan-root side deterministically.
	span := tr.Root.Children[0]
	span.Totals.RowsOut += 3
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceConserve)
}

func TestVerifyTraceRejectsIllegalDedup(t *testing.T) {
	rw, tr := traceFixture(t)
	findSpan(tr, trace.KindJoin).Totals.DedupHits = 2
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceConserve)
}

func TestVerifyTraceRejectsStatsDrift(t *testing.T) {
	rw, tr := traceFixture(t)
	tr.Totals.RowsProcessed += 5
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceStats)

	rw2, tr2 := traceFixture(t)
	tr2.Totals.MaxNodeRows++
	assertRule(t, check.VerifyTrace(rw2, tr2), check.RuleTraceStats)

	rw3, tr3 := traceFixture(t)
	tr3.Totals.Repartitions++
	assertRule(t, check.VerifyTrace(rw3, tr3), check.RuleTraceStats)
}

// localTraceFixture executes a co-located join whose selective left input
// filters the right one in place, rewritten with the statistics of its
// database, and returns the plan and its (valid) trace with the local
// filter's span. The filtered column is a foreign key, so the scan below the
// filter reads through its index.
func localTraceFixture(t *testing.T) (*plan.Rewritten, *trace.Trace, *trace.OpTrace) {
	t.Helper()
	s := catalog.NewSchema("lf")
	s.MustAddTable(catalog.MustTable("users",
		[]catalog.Column{{Name: "uid", Kind: value.Int}, {Name: "region", Kind: value.Int}}, "uid"))
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "oid", Kind: value.Int}, {Name: "uid", Kind: value.Int}}, "oid"))
	s.MustAddFK(catalog.ForeignKey{Name: "fk_orders_users", FromTable: "orders", FromCols: []string{"uid"},
		ToTable: "users", ToCols: []string{"uid"}, ToIsUnique: true})
	db := table.NewDatabase(s)
	for i := int64(0); i < 40; i++ {
		db.Tables["users"].MustAppend(value.Tuple{i, i % 5})
	}
	for i := int64(0); i < 200; i++ {
		db.Tables["orders"].MustAppend(value.Tuple{i, i % 40})
	}
	cfg := partition.NewConfig(4)
	cfg.SetHash("users", "uid")
	cfg.SetHash("orders", "uid")
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := plan.Join(plan.Filter(plan.Scan("users", "u"), plan.Eq(plan.Col("u.region"), plan.Lit(1))),
		plan.Scan("orders", "o"), plan.Inner, []string{"u.uid"}, []string{"o.uid"})
	rw, err := plan.Rewrite(q, s, cfg, plan.Options{Stats: plan.GatherStats(pdb)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.ExecuteCtx(context.Background(), rw, pdb, engine.ExecOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.VerifyTrace(rw, res.Trace); err != nil {
		t.Fatalf("fixture trace must verify cleanly: %v", err)
	}
	span := findSpan(res.Trace, trace.KindLocalFilter)
	if span == nil || span.Totals.FilteredRows == 0 {
		t.Fatalf("fixture drift: want a local filter that drops rows\n%s", rw.Explain())
	}
	return rw, res.Trace, span
}

// TestVerifyTraceRejectsShippingLocalFilter: a local filter probes the
// filter its own node built, so bytes charged to it are a transfer the plan
// does not make, and so is counting it as one.
func TestVerifyTraceRejectsShippingLocalFilter(t *testing.T) {
	rw, tr, span := localTraceFixture(t)
	span.Totals.BytesShipped = 64
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceShip)

	rw, tr, _ = localTraceFixture(t)
	tr.Totals.Transfers++
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceStats)

	rw, tr, span = localTraceFixture(t)
	span.Kind = trace.KindRuntimeFilter
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceShape)
}

// rangeTraceFixture executes a count of the events in a date range, rewritten
// with the statistics of its database, and returns the plan and its (valid)
// trace with the date filter's span, whose scan reads through a date index.
func rangeTraceFixture(t *testing.T) (*plan.Rewritten, *trace.Trace, *trace.OpTrace) {
	t.Helper()
	s := catalog.NewSchema("rf")
	s.MustAddTable(catalog.MustTable("events",
		[]catalog.Column{{Name: "eid", Kind: value.Int}, {Name: "day", Kind: value.Date}, {Name: "v", Kind: value.Int}}, "eid"))
	db := table.NewDatabase(s)
	for i := int64(0); i < 400; i++ {
		db.Tables["events"].MustAppend(value.Tuple{i, 9000 + i*7%100, i % 3})
	}
	cfg := partition.NewConfig(4)
	cfg.SetHash("events", "eid")
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := plan.Aggregate(plan.Filter(plan.Scan("events", "e"),
		plan.And(plan.Ge(plan.Col("e.day"), plan.Lit(9010)), plan.Lt(plan.Col("e.day"), plan.Lit(9030)), plan.Eq(plan.Col("e.v"), plan.Lit(1)))),
		nil, plan.Count("n"))
	rw, err := plan.Rewrite(q, s, cfg, plan.Options{Stats: plan.GatherStats(pdb)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.ExecuteCtx(context.Background(), rw, pdb, engine.ExecOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.VerifyTrace(rw, res.Trace); err != nil {
		t.Fatalf("fixture trace must verify cleanly: %v", err)
	}
	span := findSpan(res.Trace, trace.KindFilter)
	if span == nil || span.Totals.FilteredRows == 0 || span.Children[0].Totals.IndexProbes == 0 {
		t.Fatalf("fixture drift: want a filter over a scan read through a date index\n%s",
			res.Trace.Render(trace.RenderOptions{HideWall: true}))
	}
	return rw, res.Trace, span
}

// TestVerifyTraceRejectsStrayProbes: only a scan directly under a runtime
// filter on a column with a key index, or under a filter with literal bounds
// on a DATE column with none, looks rows up in an index, and on each node its work is its probes plus
// the rows the filter examined there: those it kept, under a runtime filter,
// or those in range, under a date filter, which counts the rest as
// filtered. Work the read did not do, rows filtered that the index did not
// skip, or probes on any other span, are caught.
func TestVerifyTraceRejectsStrayProbes(t *testing.T) {
	rw, tr, span := localTraceFixture(t)
	scan := span.Children[0]
	if scan.Kind != trace.KindScan || scan.Totals.IndexProbes == 0 {
		t.Fatalf("fixture drift: want a scan read through an index under the local filter\n%s",
			tr.Render(trace.RenderOptions{HideWall: true}))
	}
	// A node that read its whole partition while claiming probes.
	for i := range scan.Nodes {
		if scan.Nodes[i].IndexProbes > 0 {
			scan.Nodes[i].Work++
			scan.Totals.Work++
			tr.Totals.RowsProcessed++
			break
		}
	}
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceConserve)

	rw, tr, span = localTraceFixture(t)
	span.Totals.IndexProbes = 3
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceConserve)

	rw, tr, _ = localTraceFixture(t)
	tr.Root.Children[0].Totals.IndexProbes = 1
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceConserve)

	// Probes under a runtime filter on a column in no key: with orders.uid's
	// foreign key undeclared, no key index exists to read.
	rw, tr, _ = localTraceFixture(t)
	rw.Catalog.FKs = nil
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceConserve)

	// A range read that charged one row more than its range on a node.
	rw, tr, span = rangeTraceFixture(t)
	scan = span.Children[0]
	for i := range scan.Nodes {
		if scan.Nodes[i].IndexProbes > 0 {
			scan.Nodes[i].Work++
			scan.Totals.Work++
			tr.Totals.RowsProcessed++
			break
		}
	}
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceConserve)

	// A date filter that counts a row as filtered the index did not skip.
	rw, tr, span = rangeTraceFixture(t)
	span.Nodes[0].FilteredRows++
	span.Totals.FilteredRows++
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceConserve)

	// A date filter that keeps more rows than the range held.
	rw, tr, span = rangeTraceFixture(t)
	span.Totals.FilteredRows = span.Totals.RowsIn - span.Totals.RowsOut + 1
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceConserve)

	// Filtered rows on a filter whose scan read no index.
	rw, tr, span = rangeTraceFixture(t)
	scan = span.Children[0]
	scan.Totals.IndexProbes = 0
	for i := range scan.Nodes {
		scan.Nodes[i].IndexProbes = 0
	}
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceConserve)

	// Probes under a filter whose DATE column leads a key, whose slot holds
	// the column's key index, never a date index.
	rw, tr, _ = rangeTraceFixture(t)
	rw.Catalog.MustAddFK(catalog.ForeignKey{Name: "fk_events_day", FromTable: "events", FromCols: []string{"day"},
		ToTable: "events", ToCols: []string{"eid"}, ToIsUnique: true})
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceConserve)

	// Probes under a filter that bounds no DATE column.
	rw, tr, _ = rangeTraceFixture(t)
	rwalk(rw.Root, func(n plan.Node) {
		if f, ok := n.(*plan.FilterNode); ok {
			f.Pred = plan.Eq(plan.Col("e.v"), plan.Lit(1))
		}
	})
	assertRule(t, check.VerifyTrace(rw, tr), check.RuleTraceConserve)
}

// rwalk visits n and every node below it.
func rwalk(n plan.Node, visit func(plan.Node)) {
	visit(n)
	for _, c := range n.Children() {
		rwalk(c, visit)
	}
}
