package engine

import (
	"context"
	"runtime"
	"testing"

	"pref/internal/batch"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/value"
)

// TestAggregationAllocatesPerGroup pins that grouped aggregation allocates
// per group and per batch, never per input row: a Q1-shaped query (scan →
// five-conjunct filter → partial aggregation into 4 groups → exchange →
// merge) over four times the rows may allocate at most a tenth more. Both
// inputs fit one batch per partition, so a per-row term is all that could
// grow (the filter, not the aggregation, still allocates a dozen times per
// batch).
func TestAggregationAllocatesPerGroup(t *testing.T) {
	cfg := testConfigs(4)["all-hashed"]
	allocs := func(rows int64) float64 {
		db := table.NewDatabase(testSchema())
		for i := int64(0); i < rows; i++ {
			db.Tables["lineitem"].MustAppend(value.Tuple{i, i % 50, i % 7})
		}
		pdb, err := partition.Apply(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pred := plan.And(
			plan.Lt(plan.Col("l.qty"), plan.Lit(4)), plan.Ge(plan.Col("l.qty"), plan.Lit(0)),
			plan.Ge(plan.Col("l.linekey"), plan.Lit(0)), plan.Lt(plan.Col("l.orderkey"), plan.Lit(50)),
			plan.Ne(plan.Col("l.orderkey"), plan.Lit(-1)))
		q := plan.Aggregate(plan.Filter(plan.Scan("lineitem", "l"), pred), []string{"l.qty"},
			plan.Count("n"), plan.Sum(plan.Col("l.orderkey"), "s"), plan.Avg(plan.Col("l.linekey"), "a"),
			plan.Min(plan.Col("l.linekey"), "lo"), plan.Max(plan.Col("l.linekey"), "hi"))
		rw, err := plan.Rewrite(q, db.Schema, cfg, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rw.Root.(*plan.FinalAggNode); !ok {
			t.Fatalf("plan is not a two-phase aggregation:\n%s", rw.Explain())
		}
		return testing.AllocsPerRun(5, func() {
			res, err := ExecuteCtx(context.Background(), rw, pdb, ExecOptions{})
			if err != nil || len(res.Rows) != 4 {
				t.Fatalf("got %d rows, err %v; want the 4 groups", len(res.Rows), err)
			}
		})
	}
	small, large := allocs(900), allocs(3600)
	t.Logf("allocations per query: %.0f at 900 rows, %.0f at 3 600", small, large)
	if large > 1.1*small {
		t.Fatalf("allocations grew from %.0f to %.0f (more than 10%%) with four times the rows", small, large)
	}
}

// TestMergeAllocatesPerGroup is the same pin on the merge side: folding the
// partial states of 4 groups from 16 sources allocates what folding them
// from 4 sources does.
func TestMergeAllocatesPerGroup(t *testing.T) {
	aggs := []plan.AggExpr{plan.Count("n"), plan.Sum(plan.Col("q"), "s"), plan.Avg(plan.Col("q"), "a")}
	psch := plan.Schema{{Name: "g", Kind: value.Int}, {Name: "n", Kind: value.Int},
		{Name: "s", Kind: value.Int}, {Name: "a$sum", Kind: value.Int}, {Name: "a$cnt", Kind: value.Int}}
	info, err := bindMerge([]string{"g"}, aggs, psch)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(sources int) float64 {
		w := batch.NewWriter(len(psch))
		for src := 0; src < sources; src++ {
			for g := int64(0); g < 4; g++ {
				w.AppendTuple([]int64{g, 10, 100, 100, 10})
			}
		}
		states := w.Finish()
		defer batch.ReleaseAll(states)
		// The emitted batches go back to the pool only after the count, and
		// the pool starts empty (a GC empties it into its victim cache, a
		// second GC drops that): every run allocates its output columns
		// afresh, so the count does not depend on what the pool holds. Under
		// the race detector sync.Pool drops a random share of Puts, which
		// a release inside the loop would count.
		outs := make([][]*batch.Batch, 0, 21)
		defer func() {
			for _, out := range outs {
				batch.ReleaseAll(out)
			}
		}()
		runtime.GC()
		runtime.GC()
		return testing.AllocsPerRun(20, func() {
			out := info.emit(info.accumulate(states), false, true)
			if batch.Rows(out) != 4 {
				t.Fatalf("merged into %d groups, want 4", batch.Rows(out))
			}
			outs = append(outs, out)
		})
	}
	small, large := allocs(4), allocs(16)
	t.Logf("allocations per merge: %.0f from 4 sources, %.0f from 16", small, large)
	if large != small {
		t.Fatalf("allocations went from %.0f to %.0f with four times the states", small, large)
	}
}

// TestBindMergeNamesEveryColumn: the merge binds its group-by and state
// columns by name, and a schema that lacks one, or lays an AVG's count
// state anywhere but after its sum, is an error rather than column -1.
func TestBindMergeNamesEveryColumn(t *testing.T) {
	aggs := []plan.AggExpr{plan.Sum(plan.Col("q"), "s"), plan.Avg(plan.Col("q"), "a")}
	f := func(names ...string) plan.Schema {
		var sch plan.Schema
		for _, n := range names {
			sch = append(sch, plan.Field{Name: n, Kind: value.Int})
		}
		return sch
	}
	for _, c := range []struct {
		sch plan.Schema
		ok  bool
	}{
		{f("g", "s", "a$sum", "a$cnt"), true},
		{f("k", "a$sum", "a$cnt", "g", "s"), true}, // states among a join's columns
		{f("s", "a$sum", "a$cnt"), false},          // no group-by column
		{f("g", "a", "a$cnt", "s"), false},         // AVG's sum state named as its output
		{f("g", "s", "a$sum", "k", "a$cnt"), false},
	} {
		if _, err := bindMerge([]string{"g"}, aggs, c.sch); (err == nil) != c.ok {
			t.Errorf("bindMerge over %v: error %v, want ok %v", c.sch.Names(), err, c.ok)
		}
		if _, err := refBindMerge([]string{"g"}, aggs, c.sch); (err == nil) != c.ok {
			t.Errorf("refBindMerge over %v: error %v, want ok %v", c.sch.Names(), err, c.ok)
		}
	}
}
