package value

import (
	"testing"
	"testing/quick"
)

func TestMakeKeyEquality(t *testing.T) {
	a := Tuple{1, 2, 3}
	b := Tuple{9, 2, 3}
	if MakeKey(a, []int{1, 2}) != MakeKey(b, []int{1, 2}) {
		t.Fatal("equal column values must yield equal keys")
	}
	if MakeKey(a, []int{0}) == MakeKey(b, []int{0}) {
		t.Fatal("different column values must yield different keys")
	}
	// Key is order-sensitive.
	if MakeKey(a, []int{1, 2}) == MakeKey(a, []int{2, 1}) {
		t.Fatal("key must be column-order sensitive")
	}
}

func TestMakeKey1MatchesMakeKey(t *testing.T) {
	f := func(v int64) bool {
		return MakeKey1(v) == MakeKey(Tuple{v}, []int{0})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMakeKeyAtMatchesMakeKey(t *testing.T) {
	f := func(a, b, c int64) bool {
		data := [][]int64{{0, a}, {0, b}, {0, c}}
		return MakeKeyAt(data, 1, []int{2, 0}) == MakeKey(Tuple{a, b, c}, []int{2, 0})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashTupleMatchesKeyHash(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		cols := make([]int, len(vals))
		for i := range cols {
			cols[i] = i
		}
		return HashTuple(Tuple(vals), cols) == MakeKey(Tuple(vals), cols).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashSpread(t *testing.T) {
	// Sequential keys should spread over partitions reasonably evenly —
	// this is what hash partitioning on a primary key relies on.
	const n, parts = 10000, 10
	counts := make([]int, parts)
	for i := 0; i < n; i++ {
		counts[MakeKey1(int64(i)).Hash()%parts]++
	}
	for p, c := range counts {
		if c < n/parts/2 || c > n/parts*2 {
			t.Fatalf("partition %d has %d of %d keys; poor spread %v", p, c, n, counts)
		}
	}
}
