package batch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"pref/internal/plan"
)

// TestRangeIsTheRange: reading a column through its sorted index returns
// exactly the rows whose value v has lo <= v <= hi, never a NULL, Count
// counts them, and Narrow emits them in stored order. Narrow and wide value
// spans, empty, one-sided and whole ranges, and a range below every value
// are covered.
func TestRangeIsTheRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, span := range []int64{1, 40, 1 << 40} {
		for _, n := range []int{0, 1, 63, 64, 65, Size + 3, 3*Size + 17} {
			col, ids := make([]int64, n), make([]int64, n)
			for i := range col {
				col[i], ids[i] = rng.Int63n(span)-span/2, int64(i)
				if rng.Intn(9) == 0 {
					col[i] = plan.Null
				}
			}
			index := BuildSortedIndex(col)
			for _, r := range [][2]int64{
				{-span / 4, span / 4}, {0, 0}, {3, 2}, {plan.Null, 0}, {0, 1 << 62},
				{plan.Null, 1 << 62}, {-(1 << 62), -(1 << 61)},
			} {
				lo, hi := r[0], r[1]
				var want, got []int64
				for i, v := range col {
					if v != plan.Null && lo <= v && v <= hi {
						want = append(want, int64(i))
					}
				}
				rows := index.Range(lo, hi)
				for _, b := range rows.Narrow(Chunks([][]int64{col, ids})) {
					for i := 0; i < b.Len(); i++ {
						got = append(got, b.At(i, 1))
					}
				}
				if !slices.Equal(got, want) || rows.Len() != len(want) || index.Count(lo, hi) != len(want) {
					t.Fatalf("span %d n=%d [%d, %d]: the range reads %v (%d, counted %d), want %v",
						span, n, lo, hi, got, rows.Len(), index.Count(lo, hi), want)
				}
			}
		}
	}
}

// BenchmarkRangeIndex prices the date index of a range read on a lineitem
// partition of TPC-H sf 0.05 hashed on orderkey over 4 nodes: building the
// index over its stored shipdate column (ns/row, allocs/row), and reading
// the rows of Q6's one-year shipdate range through it (ns per row read).
func BenchmarkRangeIndex(b *testing.B) {
	_, pt := lineitemPartition(b)
	col := pt.Parts[0].Columns(pt.Meta.NumCols()).Cols[pt.Meta.ColIndex("shipdate")]
	b.Run(fmt.Sprintf("build/rows=%d", len(col)), func(b *testing.B) {
		allocs := testing.AllocsPerRun(1, func() { BuildSortedIndex(col) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			BuildSortedIndex(col)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(col)), "ns/row")
		b.ReportMetric(allocs/float64(len(col)), "allocs/row")
	})
	index := BuildSortedIndex(col)
	lo, hi := int64(8766), int64(9130) // 1994-01-01 ..= 1994-12-31
	rows := index.Range(lo, hi).Len()
	if rows == 0 {
		b.Fatal("the range holds no row")
	}
	b.Run(fmt.Sprintf("range/rows=%d", rows), func(b *testing.B) {
		var took time.Duration
		for i := 0; i < b.N; i++ {
			start := time.Now()
			index.Range(lo, hi)
			took += time.Since(start)
		}
		b.ReportMetric(float64(took.Nanoseconds())/float64(b.N*rows), "ns/row")
	})
}
