package batch

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// colPool recycles Size-capacity column vectors. Pooling is per-column, not
// per-batch, so batches of any width draw from the same arena.
var colPool = sync.Pool{
	New: func() any { return make([]int64, 0, Size) },
}

// outstanding is the pool's balance: columns handed out by get and not yet
// returned by Release.
var outstanding atomic.Int64

// Outstanding reports the pool's balance, the pooled columns checked out and
// not yet released. A process that released every batch it wrote reads 0.
func Outstanding() int64 { return outstanding.Load() }

// get returns a dense batch with width empty pooled columns, each with
// capacity Size.
func get(width int) *Batch {
	b := &Batch{Cols: make([][]int64, width)}
	b.pooled.Store(true)
	for c := range b.Cols {
		b.Cols[c] = colPool.Get().([]int64)[:0]
	}
	outstanding.Add(int64(width))
	return b
}

// Release returns a pooled batch's columns to the arena. Only call on
// batches whose columns no caller will read again; view batches (zero-copy
// over storage) are a no-op. Release is idempotent and safe to race with
// itself: the pooled flag is claimed with a compare-and-swap, so when
// shared batch lists (broadcast, one-copy gather) are swept from more than
// one place, exactly one sweep recycles the columns and the rest are
// no-ops that never touch Cols.
func (b *Batch) Release() {
	if b == nil || !b.pooled.CompareAndSwap(true, false) {
		return
	}
	outstanding.Add(-int64(len(b.Cols)))
	for c := range b.Cols {
		if cap(b.Cols[c]) == Size {
			colPool.Put(b.Cols[c][:0])
		}
		b.Cols[c] = nil
	}
	b.Sel = nil
}

// ReleaseAll releases every batch in the list.
func ReleaseAll(bs []*Batch) {
	for _, b := range bs {
		b.Release()
	}
}

// SharesPooled reports whether a column of a batch in out shares its backing
// array with a pooled column of a batch in one of the lists in: whether
// releasing them would recycle storage that out still reads.
func SharesPooled(out [][]*Batch, in ...[][]*Batch) bool {
	type span struct{ lo, hi uintptr }
	var spans []span
	for _, lists := range in {
		for _, bs := range lists {
			for _, b := range bs {
				if !b.pooled.Load() {
					continue
				}
				for _, c := range b.Cols {
					if lo := base(c); lo != 0 {
						spans = append(spans, span{lo, lo + uintptr(cap(c))*8})
					}
				}
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for _, bs := range out {
		for _, b := range bs {
			for _, c := range b.Cols {
				p := base(c)
				// The last span starting at or below p is the only one that can
				// hold it: pooled arrays never overlap.
				i := sort.Search(len(spans), func(i int) bool { return spans[i].lo > p })
				if p != 0 && i > 0 && p < spans[i-1].hi {
					return true
				}
			}
		}
	}
	return false
}

// base is the address of a column's first element, 0 when it has no storage.
func base(c []int64) uintptr {
	if cap(c) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(c)))
}
