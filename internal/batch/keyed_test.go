package batch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"pref/internal/partition"
	"pref/internal/tpch"
)

// TestFetchIsTheExactFilter: reading a column through its index keeps the
// rows the exact filter keeps, in stored order, over dense chunks and over
// chunks a selection already narrowed; it visits the keys' distinct values
// once each, and the fetched rows are exactly those whose key the set holds.
func TestFetchIsTheExactFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, Size - 1, Size, 3*Size + 17} {
		col := make([]int64, n)
		for i := range col {
			col[i] = int64(rng.Intn(n/4 + 2))
		}
		keys := []int64{1, 1, 3, 5, 5, 5, int64(n + 100), -7}
		set := BuildInt64Table(keys)
		if set.Distinct() != 5 {
			t.Fatalf("%d keys with 5 distinct values count %d", len(keys), set.Distinct())
		}
		rows := BuildInt64Table(col).Fetch(set)
		for _, narrowed := range []bool{false, true} {
			chunks := Chunks([][]int64{col})
			if narrowed {
				// A narrowed input: every other row; the set's row ids count
				// the live rows.
				var live []int64
				for i, c := range chunks {
					sel := make([]int32, 0, c.Len())
					for phys := 0; phys < c.Len(); phys += 2 {
						sel = append(sel, int32(phys))
						live = append(live, col[i*Size+phys])
					}
					chunks[i] = c.WithSel(sel)
				}
				rows = BuildInt64Table(live).Fetch(set)
			}
			var want, got []int64
			for _, b := range chunks {
				for _, phys := range set.Select(nil, b, 0) {
					want = append(want, int64(phys))
				}
			}
			for _, b := range rows.Narrow(chunks) {
				for i := 0; i < b.Len(); i++ {
					got = append(got, int64(b.Phys(i)))
				}
			}
			if !slices.Equal(got, want) || rows.Len() != len(want) {
				t.Fatalf("n=%d narrowed=%v: fetch keeps %v (%d rows), the exact filter %v", n, narrowed, got, rows.Len(), want)
			}
		}
	}
}

// BenchmarkKeyIndex prices the key index of a keyed read on a lineitem
// partition of TPC-H sf 0.05 hashed on orderkey over 4 nodes: building the
// index over its stored orderkey column (ns/row, allocs/row), and fetching
// the rows of one key in twenty of its distinct orderkeys through it
// (ns/key).
func BenchmarkKeyIndex(b *testing.B) {
	d := tpch.Generate(0.05, 42)
	var others []string
	for _, name := range d.DB.Schema.TableNames() {
		if name != "lineitem" {
			others = append(others, name)
		}
	}
	cfg := partition.NewConfig(4)
	cfg.SetHash("lineitem", "orderkey")
	pdb, err := partition.Apply(d.DB.Without(others...), cfg)
	if err != nil {
		b.Fatal(err)
	}
	pt := pdb.Tables["lineitem"]
	col := pt.Parts[0].Columns(pt.Meta.NumCols()).Cols[pt.Meta.ColIndex("orderkey")]
	b.Run(fmt.Sprintf("build/rows=%d", len(col)), func(b *testing.B) {
		allocs := testing.AllocsPerRun(1, func() { BuildInt64Table(col) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			BuildInt64Table(col)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(col)), "ns/row")
		b.ReportMetric(allocs/float64(len(col)), "allocs/row")
	})
	index := BuildInt64Table(col)
	var keys []int64
	distinct := 0
	for i, k := range col {
		if i > 0 && k == col[i-1] {
			continue // a partition stores an order's lines together
		}
		if distinct%20 == 0 {
			keys = append(keys, k)
		}
		distinct++
	}
	set := BuildInt64Table(keys)
	b.Run(fmt.Sprintf("fetch/keys=%d", set.Distinct()), func(b *testing.B) {
		var took time.Duration
		fetched := 0
		for i := 0; i < b.N; i++ {
			start := time.Now()
			fetched = index.Fetch(set).Len()
			took += time.Since(start)
		}
		if fetched == 0 {
			b.Fatal("the fetch found no row")
		}
		b.ReportMetric(float64(took.Nanoseconds())/float64(b.N*set.Distinct()), "ns/key")
	})
}
