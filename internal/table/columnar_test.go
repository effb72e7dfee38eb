package table

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"pref/internal/value"
)

// TestColumnsProjection pins the columnar layout: table columns in schema
// order, then dup and hasRef as 0/1.
func TestColumnsProjection(t *testing.T) {
	p := NewPartition(2)
	p.Append(value.Tuple{1, 10}, false, true)
	p.Append(value.Tuple{2, 20}, true, false)
	p.Append(value.Tuple{3, 30}, true, true)

	c := p.Columns(2)
	if c.NRows != 3 {
		t.Fatalf("NRows = %d", c.NRows)
	}
	want := [][]int64{{1, 2, 3}, {10, 20, 30}, {0, 1, 1}, {1, 0, 1}}
	if !reflect.DeepEqual(c.Cols, want) {
		t.Fatalf("columns = %v, want %v", c.Cols, want)
	}
	if got := p.Rows(); !reflect.DeepEqual(got, []value.Tuple{{1, 10}, {2, 20}, {3, 30}}) {
		t.Fatalf("rows derived from the columns = %v", got)
	}
	if e := NewPartition(2).Columns(2); e.NRows != 0 || len(e.Cols) != 4 {
		t.Fatalf("empty partition: NRows=%d cols=%d", e.NRows, len(e.Cols))
	}
}

// image is what a reader pinned to a partition can observe of it: the
// values of every column, and where each column's storage lives.
type image struct {
	vals [][]int64
	at   []uintptr
}

func addr(c []int64) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(c))) }

func imageOf(p *Partition) image {
	var im image
	for _, c := range p.cols {
		im.vals = append(im.vals, append([]int64(nil), c...))
		im.at = append(im.at, addr(c))
	}
	return im
}

// TestPinnedVersionColumnsAreStable holds the copy-on-write discipline to
// what readers rely on: whatever the writer does to the head — append,
// update, delete, a torn crash rolled back — the columns of a pinned
// version keep their values and their storage, and an update gives the
// head a new array for the column it sets and for no other.
func TestPinnedVersionColumnsAreStable(t *testing.T) {
	pt := NewPartitioned(meta(t), 1)
	for i := int64(0); i < 100; i++ {
		pt.Parts[0].Append(value.Tuple{i, 10 * i}, i%3 == 0, i%2 == 0)
	}
	pt.OriginalRows = 100
	pinned := pt.Snapshot()
	want := imageOf(pinned.Parts[0])
	check := func(after string) {
		t.Helper()
		if got := imageOf(pinned.Parts[0]); !reflect.DeepEqual(got, want) {
			t.Fatalf("pinned version changed under %s", after)
		}
	}
	moved := func(head *Partition) (cols []int) {
		for j, c := range head.cols {
			if addr(c) != want.at[j] {
				cols = append(cols, j)
			}
		}
		return cols
	}

	head := pt.BeginWrite(0)
	if len(moved(head)) != 0 {
		t.Fatal("a clone copied column storage before any write")
	}
	head.Writable(1)[7] = -1
	if got := moved(head); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("an update of column 1 reallocated columns %v", got)
	}
	check("update")
	pt.Publish()

	pt.BeginWrite(0).Append(value.Tuple{100, 1000}, false, true)
	check("append")
	pt.Publish()

	pt.BeginWrite(0).Delete([]int{0, 50, 100})
	check("delete")
	pt.Publish()
	if got := pt.Snapshot().Parts[0]; got.Len() != 98 || got.Row(6)[1] != -1 || got.Row(0)[0] != 1 {
		t.Fatalf("published head lost the writes: %d rows", got.Len())
	}

	published := imageOf(pt.Snapshot().Parts[0])
	torn := pt.BeginWrite(0)
	torn.Append(value.Tuple{7, 7}, false, false)
	torn.AppendTorn(value.Tuple{8, 8})
	if torn.CheckInvariants() == nil {
		t.Fatal("setup: head should be torn")
	}
	pt.ResetToPublished()
	check("torn crash and rollback")
	if got := imageOf(pt.Parts[0]); !reflect.DeepEqual(got, published) {
		t.Fatal("rollback did not restore the published columns in place")
	}
}

// TestColumnsConcurrent reads one frozen partition from many goroutines;
// -race validates that handing out the view writes nothing.
func TestColumnsConcurrent(t *testing.T) {
	p := NewPartition(2)
	for i := 0; i < 5000; i++ {
		p.Append(value.Tuple{int64(i), int64(i * 2)}, i%3 == 0, i%2 == 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := p.Columns(2)
			for i := 0; i < 5000; i++ {
				if c.Cols[0][i] != int64(i) {
					t.Errorf("row %d corrupted", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
