package batch

import "sync"

// colPool recycles Size-capacity column vectors. Pooling is per-column, not
// per-batch, so batches of any width draw from the same arena.
var colPool = sync.Pool{
	New: func() any { return make([]int64, 0, Size) },
}

// get returns a dense batch with width empty pooled columns, each with
// capacity Size.
func get(width int) *Batch {
	b := &Batch{Cols: make([][]int64, width)}
	b.pooled.Store(true)
	for c := range b.Cols {
		b.Cols[c] = colPool.Get().([]int64)[:0]
	}
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
