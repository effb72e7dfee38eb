package engine

import (
	"math/rand"
	"runtime"
	"testing"

	"pref/internal/batch"
	"pref/internal/plan"
	"pref/internal/value"
)

var aggSink []*batch.Batch

// BenchmarkGroupedAgg times the two phases of grouped aggregation through
// the entry points the operators use (bindAggs/bindMerge once, then
// accumulate and emit per partition), per layer: "partial" pre-aggregates 4
// partitions of input batches and scatters the states, "merge" folds the
// partial states each partition receives from the exchange. Low cardinality is Q1-like (4 groups, so the merge sees 16
// states); high cardinality has one group per ~1.3 rows under a 5-column
// key, where pre-aggregation barely shrinks the input and the merge does
// the same order of work as the partial phase.
func BenchmarkGroupedAgg(b *testing.B) {
	const parts, rowsPerPart = 4, 10000
	groupBy := []string{"g0", "g1", "g2", "g3", "g4"}
	sch := plan.Schema{}
	for _, g := range groupBy {
		sch = append(sch, plan.Field{Name: g, Kind: value.Int})
	}
	sch = append(sch, plan.Field{Name: "qty", Kind: value.Int}, plan.Field{Name: "price", Kind: value.Money})
	aggs := []plan.AggExpr{
		plan.Sum(plan.Col("qty"), "sum_qty"), plan.Sum(plan.Col("price"), "sum_price"),
		plan.Avg(plan.Col("qty"), "avg_qty"), plan.Avg(plan.Col("price"), "avg_price"),
		plan.Min(plan.Col("price"), "min_price"), plan.Max(plan.Col("price"), "max_price"),
		plan.Count("n"),
	}
	// The partial schema: group columns, then the states (AVG: sum, count).
	psch := append(plan.Schema{}, sch[:len(groupBy)]...)
	for _, a := range aggs {
		psch = append(psch, plan.Field{Name: plan.StateCol(a), Kind: value.Int})
		if a.Fn == plan.AvgFn {
			psch = append(psch, plan.Field{Name: a.As + "$cnt", Kind: value.Int})
		}
	}
	gidx := []int{0, 1, 2, 3, 4}

	for _, card := range []struct {
		name   string
		groups int
	}{
		{"low", 4},
		// Drawing ids uniformly from rows/0.55 values leaves ~0.77 distinct
		// ids per row: one group per ~1.3 rows.
		{"high", parts * rowsPerPart * 100 / 55},
	} {
		rng := rand.New(rand.NewSource(1))
		rows := make([][]value.Tuple, parts)
		for p := range rows {
			for i := 0; i < rowsPerPart; i++ {
				id := int64(rng.Intn(card.groups))
				rows[p] = append(rows[p], value.Tuple{id % 3, id % 7, id % 11, id % 13, id,
					int64(1 + rng.Intn(50)), int64(rng.Intn(10_000_000))})
			}
		}
		in := liftParts(rows, len(sch))
		info, err := bindAggs(groupBy, aggs, sch)
		if err != nil {
			b.Fatal(err)
		}
		partial := func() vparts {
			writers := newScatter(parts, len(psch))
			for p := range in {
				for _, st := range info.emit(info.accumulate(in[p]), true, true) {
					writers.add(st, st, gidx, p)
					st.Release()
				}
			}
			return writers.finish()
		}
		shuffled := partial()
		states := 0
		for _, bs := range shuffled {
			states += batch.Rows(bs)
		}
		minfo, err := bindMerge(groupBy, aggs, psch)
		if err != nil {
			b.Fatal(err)
		}

		b.Run(card.name+"/partial", func(b *testing.B) {
			perRow(b, parts*rowsPerPart, func() {
				out := partial()
				aggSink = out[0]
				pooled{out}.release()
			})
		})
		b.Run(card.name+"/merge", func(b *testing.B) {
			perRow(b, states, func() {
				for p := range shuffled {
					aggSink = minfo.emit(minfo.accumulate(shuffled[p]), false, true)
					batch.ReleaseAll(aggSink)
				}
			})
		})
	}
}

// perRow runs fn b.N times and reports its cost per processed row.
func perRow(b *testing.B, rows int, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/row")
}
