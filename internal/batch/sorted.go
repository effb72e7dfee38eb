package batch

import (
	"cmp"
	"slices"
	"sort"

	"pref/internal/plan"
)

// Range reads: the kernel of a date filter's read through an index. A
// SortedIndex lists the row ids of a column's non-NULL values in value
// order, so the rows whose value lies in a closed range are one run of it,
// found by two binary searches. Range hands them out as a RowSet, whose
// Narrow emits them in stored order, as a filter over the whole column
// would.

// SortedIndex is the row ids of one int64 column's non-NULL values, sorted
// by value and, among equal values, by row id. It borrows the column, which
// the caller must keep immutable while it reads through the index, and owns
// one int32 per indexed row.
type SortedIndex struct {
	col []int64
	ids []int32
}

// BuildSortedIndex indexes col. The slice is retained, not copied.
func BuildSortedIndex(col []int64) *SortedIndex {
	n, lo, hi := 0, int64(0), int64(0)
	for _, v := range col {
		if v == plan.Null {
			continue
		}
		if n == 0 || v < lo {
			lo = v
		}
		if n == 0 || v > hi {
			hi = v
		}
		n++
	}
	ids := make([]int32, n)
	if n > 0 && uint64(hi-lo) < uint64(len(col)) {
		// Dates and other columns whose values span fewer values than the
		// column has rows: a counting sort, stable, so equal values keep row
		// order. It builds a date index ~30x faster than the comparison sort
		// below, which a writer's publish, forcing rebuilds, pays for in
		// throughput (DESIGN.md, "Range reads").
		start := make([]int32, hi-lo+2)
		for _, v := range col {
			if v != plan.Null {
				start[v-lo+1]++
			}
		}
		for i := 1; i < len(start); i++ {
			start[i] += start[i-1]
		}
		for i, v := range col {
			if v != plan.Null {
				ids[start[v-lo]] = int32(i)
				start[v-lo]++
			}
		}
		return &SortedIndex{col: col, ids: ids}
	}
	ids = ids[:0]
	for i, v := range col {
		if v != plan.Null {
			ids = append(ids, int32(i))
		}
	}
	slices.SortFunc(ids, func(a, b int32) int {
		return cmp.Or(cmp.Compare(col[a], col[b]), cmp.Compare(a, b))
	})
	return &SortedIndex{col: col, ids: ids}
}

// bounds returns the run of ids whose value lies in [lo, hi].
func (x *SortedIndex) bounds(lo, hi int64) (int, int) {
	if lo > hi {
		return 0, 0
	}
	i := sort.Search(len(x.ids), func(k int) bool { return x.col[x.ids[k]] >= lo })
	j := sort.Search(len(x.ids), func(k int) bool { return x.col[x.ids[k]] > hi })
	return i, j
}

// Count returns how many rows' values lie in [lo, hi]: two binary searches,
// no row visited.
func (x *SortedIndex) Count(lo, hi int64) int {
	i, j := x.bounds(lo, hi)
	return j - i
}

// Range returns the rows whose value lies in [lo, hi]. It visits those rows
// only.
func (x *SortedIndex) Range(lo, hi int64) *RowSet {
	s := &RowSet{words: make([]uint64, (len(x.col)+63)/64)}
	i, j := x.bounds(lo, hi)
	for _, r := range x.ids[i:j] {
		s.words[r>>6] |= 1 << (r & 63)
	}
	s.n = j - i
	return s
}
