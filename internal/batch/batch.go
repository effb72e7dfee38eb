// Package batch is the columnar substrate of the vectorized engine: fixed
// column vectors of int64-encoded values (the value package's universal
// encoding — dates as day numbers, money as cents, strings as dictionary
// codes, floats as IEEE-754 bit patterns), processed ~1k rows at a time.
//
// A Batch is a window over per-column arrays plus an optional selection
// vector. Operators never mutate a batch they received as input: a filter
// narrows by allocating a fresh selection vector over the same columns, a
// projection writes into a new (pooled) batch. This batch-ownership rule is
// what lets a scan hand out zero-copy views of table storage — the same
// arrays every concurrent query reads — and is pinned by the batchwrite
// lint analyzer.
//
// Column vectors for materialized (non-view) batches come from a sync.Pool
// arena keyed to the default batch capacity, so steady-state execution
// recycles its working set instead of growing per-row garbage. Outstanding
// counts the columns checked out and not yet released; the engine releases
// every batch it writes in one place, and its tests hold that count at zero
// after every query.
package batch

import (
	"sync/atomic"

	"pref/internal/value"
)

// Size is the default logical batch capacity: small enough that a batch's
// working set (a handful of columns × 8 bytes × Size) stays cache-resident,
// large enough to amortize per-batch dispatch.
const Size = 1024

// Batch is one unit of columnar execution: Width column vectors of equal
// physical length, with an optional selection vector choosing the live
// rows. Cols hold int64-encoded values (see package value). A nil Sel means
// every physical row is live, in storage order.
type Batch struct {
	// Cols are the column vectors; all have the same length. They may be
	// shared, zero-copy, with table storage or with an upstream batch —
	// never write through them unless this batch owns its columns.
	Cols [][]int64
	// Sel is the selection vector: indexes of live physical rows in
	// ascending order. nil selects all rows.
	Sel []int32
	// pooled marks batches whose column backing came from the pool (safe
	// to recycle via Release). It is flipped with an atomic
	// compare-and-swap: broadcast and one-copy gather share *Batch
	// pointers across partition slots, so two sweeps may race to release
	// the same header — exactly one wins and recycles the columns.
	pooled atomic.Bool
}

// Len reports the number of live (selected) rows.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	if b.Sel != nil {
		return len(b.Sel)
	}
	if len(b.Cols) == 0 {
		return 0
	}
	return len(b.Cols[0])
}

// Width reports the number of columns.
func (b *Batch) Width() int { return len(b.Cols) }

// At returns the value of column c at live row i (selection applied).
func (b *Batch) At(i, c int) int64 {
	if b.Sel != nil {
		return b.Cols[c][b.Sel[i]]
	}
	return b.Cols[c][i]
}

// Row copies live row i into dst (len ≥ Width), returning the slice.
func (b *Batch) Row(i int, dst []int64) []int64 {
	dst = dst[:b.Width()]
	phys := i
	if b.Sel != nil {
		phys = int(b.Sel[i])
	}
	for c, col := range b.Cols {
		dst[c] = col[phys]
	}
	return dst
}

// View returns a zero-copy batch over externally owned column vectors
// (e.g. table storage). The caller promises the arrays are immutable for
// the batch's lifetime.
func View(cols [][]int64) *Batch { return &Batch{Cols: cols} }

// WithSel returns a new batch over the same columns narrowed to sel. The
// receiver is not modified (batch-ownership rule: narrowing allocates a
// new header, never rewrites a shared one).
func (b *Batch) WithSel(sel []int32) *Batch {
	return &Batch{Cols: b.Cols, Sel: sel}
}

// Select returns a new batch over the subset idx of b's column vectors, in
// idx order, sharing b's selection vector — how a copying operator reads only
// the columns it writes. The same ownership rule as WithSel: the view never
// owns pooled columns, so releasing it is a no-op and b stays the releaser.
func (b *Batch) Select(idx []int) *Batch {
	cols := make([][]int64, len(idx))
	for i, c := range idx {
		cols[i] = b.Cols[c]
	}
	return &Batch{Cols: cols, Sel: b.Sel}
}

// SelectAll is Select over a batch list; nil idx means every column and
// returns bs itself.
func SelectAll(bs []*Batch, idx []int) []*Batch {
	if idx == nil {
		return bs
	}
	out := make([]*Batch, len(bs))
	for i, b := range bs {
		out[i] = b.Select(idx)
	}
	return out
}

// Chunks splits a view over n physical rows into ⌈n/Size⌉ zero-copy
// batches of at most Size rows each, preserving row order.
func Chunks(cols [][]int64) []*Batch {
	if len(cols) == 0 || len(cols[0]) == 0 {
		return nil
	}
	n := len(cols[0])
	out := make([]*Batch, 0, (n+Size-1)/Size)
	for off := 0; off < n; off += Size {
		end := off + Size
		if end > n {
			end = n
		}
		sub := make([][]int64, len(cols))
		for c := range cols {
			// Capacity is deliberately left unclamped: sibling chunks stay
			// recognizably contiguous, so Flatten can reassemble them
			// zero-copy. Safe because operators never append through a
			// received batch's columns (batch-ownership rule).
			sub[c] = cols[c][off:end]
		}
		out = append(out, &Batch{Cols: sub})
	}
	return out
}

// Rows sums the live rows of a batch list.
func Rows(bs []*Batch) int {
	n := 0
	for _, b := range bs {
		n += b.Len()
	}
	return n
}

// AppendRows materializes every live row of bs as value.Tuple rows appended
// to dst. The engine calls it once per query, to fill Result.Rows; no
// operator consumes rows.
func AppendRows(dst []value.Tuple, bs []*Batch) []value.Tuple {
	total := Rows(bs)
	if cap(dst)-len(dst) < total {
		grown := make([]value.Tuple, len(dst), len(dst)+total)
		copy(grown, dst)
		dst = grown
	}
	// One backing allocation for the whole list when the widths agree
	// (the common case: every batch is one operator's output), sliced
	// into tuples — sparse lists of small views would otherwise pay a
	// make per batch.
	uniform := true
	for _, b := range bs {
		if b.Len() > 0 && b.Width() != bs[0].Width() {
			uniform = false
			break
		}
	}
	var shared []int64
	if uniform && total > 0 {
		shared = make([]int64, total*bs[0].Width())
	}
	for _, b := range bs {
		w := b.Width()
		n := b.Len()
		if n == 0 {
			continue
		}
		flat := shared
		if flat == nil {
			flat = make([]int64, n*w)
		} else {
			flat, shared = shared[:n*w], shared[n*w:]
		}
		// Dense batches transpose row-major (sequential writes, one read
		// stream per column); selective batches go column-major — the
		// per-column gather is a single strided read stream the hardware
		// prefetcher can follow, where row-major would hop across every
		// column per selected row.
		if b.Sel == nil {
			for i := 0; i < n; i++ {
				row := flat[i*w : i*w+w]
				for c, col := range b.Cols {
					row[c] = col[i]
				}
			}
		} else {
			for c, col := range b.Cols {
				for i, phys := range b.Sel {
					flat[i*w+c] = col[phys]
				}
			}
		}
		for i := 0; i < n; i++ {
			dst = append(dst, value.Tuple(flat[i*w:(i+1)*w:(i+1)*w]))
		}
	}
	return dst
}

// Flatten compacts a batch list into one dense batch of the given width,
// preserving row order — the shape hash-join builds index with a single
// int32 per row. A lone dense batch passes through zero-copy.
func Flatten(bs []*Batch, width int) *Batch {
	if len(bs) == 1 && bs[0].Sel == nil && bs[0].Width() == width {
		return bs[0]
	}
	n := Rows(bs)
	if f := contiguous(bs, width, n); f != nil {
		return f
	}
	flat := make([]int64, n*width)
	cols := make([][]int64, width)
	for c := range cols {
		cols[c] = flat[c*n : (c+1)*n : (c+1)*n]
	}
	off := 0
	for _, b := range bs {
		bn := b.Len()
		for c := 0; c < width && c < len(b.Cols); c++ {
			src, dst := b.Cols[c], cols[c]
			if b.Sel == nil {
				copy(dst[off:off+bn], src[:bn])
			} else {
				for i, phys := range b.Sel {
					dst[off+i] = src[phys]
				}
			}
		}
		off += bn
	}
	return &Batch{Cols: cols}
}

// contiguous reassembles, zero-copy, a batch list whose chunks are adjacent
// windows over one backing array — the shape Chunks hands out for storage
// scans. Each column of batch k must start exactly where batch k-1's ends,
// verified by element address, and the first chunk's capacity must reach
// the full n rows. Returns nil when the list isn't such a sequence.
func contiguous(bs []*Batch, width, n int) *Batch {
	if len(bs) == 0 || n == 0 {
		return nil
	}
	for _, b := range bs {
		if b.Sel != nil || b.Width() != width || b.Len() == 0 {
			return nil
		}
	}
	cols := make([][]int64, width)
	for c := 0; c < width; c++ {
		if cap(bs[0].Cols[c]) < n {
			return nil
		}
		ext := bs[0].Cols[c][:n]
		off := len(bs[0].Cols[c])
		for _, b := range bs[1:] {
			if &ext[off] != &b.Cols[c][0] {
				return nil
			}
			off += len(b.Cols[c])
		}
		cols[c] = ext
	}
	return &Batch{Cols: cols}
}

// Writer accumulates rows into dense pooled batches of at most Size rows,
// preserving append order.
type Writer struct {
	width int
	cur   *Batch
	n     int
	done  []*Batch
}

// NewWriter opens a writer for batches of the given width.
func NewWriter(width int) *Writer { return &Writer{width: width} }

func (w *Writer) room() *Batch {
	if w.cur == nil || w.n == Size {
		w.flush()
		w.cur = get(w.width)
	}
	return w.cur
}

func (w *Writer) flush() {
	if w.cur == nil {
		return
	}
	for c := range w.cur.Cols {
		w.cur.Cols[c] = w.cur.Cols[c][:w.n]
	}
	if w.n > 0 {
		w.done = append(w.done, w.cur)
	} else {
		w.cur.Release()
	}
	w.cur = nil
	w.n = 0
}

// AppendTuple appends one row given as a flat tuple.
func (w *Writer) AppendTuple(t []int64) {
	b := w.room()
	for c := range b.Cols {
		b.Cols[c] = append(b.Cols[c], t[c])
	}
	w.n++
}

// AppendFrom appends live row i of src (selection applied). Columns beyond
// src's width are zero-filled; src columns beyond the writer's width are
// dropped.
func (w *Writer) AppendFrom(src *Batch, i int) {
	b := w.room()
	phys := i
	if src.Sel != nil {
		phys = int(src.Sel[i])
	}
	for c := range b.Cols {
		var v int64
		if c < len(src.Cols) {
			v = src.Cols[c][phys]
		}
		b.Cols[c] = append(b.Cols[c], v)
	}
	w.n++
}

// AppendPair appends the concatenation of live row li of l and physical
// row rphys of r — the join-emit fast path. r may be nil: the right half
// is filled with the given null value (left-outer padding).
func (w *Writer) AppendPair(l *Batch, li int, r *Batch, rphys int, null int64) {
	b := w.room()
	lw := l.Width()
	lphys := li
	if l.Sel != nil {
		lphys = int(l.Sel[li])
	}
	for c := 0; c < lw && c < len(b.Cols); c++ {
		b.Cols[c] = append(b.Cols[c], l.Cols[c][lphys])
	}
	for c := lw; c < len(b.Cols); c++ {
		var v int64
		if r != nil {
			v = r.Cols[c-lw][rphys]
		} else {
			v = null
		}
		b.Cols[c] = append(b.Cols[c], v)
	}
	w.n++
}

// AppendPairs appends len(li) concatenated pair rows column-wise: output
// row k is physical left row li[k] joined to physical right row ri[k] (or
// null-padded when ri[k] < 0). The column-major gather touches one column
// vector at a time instead of interleaving every column per row — the
// hash-join emit fast path.
func (w *Writer) AppendPairs(l *Batch, li []int32, r *Batch, ri []int32, null int64) {
	lw := l.Width()
	for off := 0; off < len(li); {
		b := w.room()
		take := len(li) - off
		if room := Size - w.n; take > room {
			take = room
		}
		// Reslicing the destination to len(sub) lets the compiler drop the
		// per-element bounds checks on both slices; only the data-dependent
		// source index keeps its check.
		lsub := li[off : off+take]
		rsub := ri[off : off+take]
		for c := 0; c < lw && c < len(b.Cols); c++ {
			col := b.Cols[c][w.n : w.n+take]
			col = col[:len(lsub)]
			src := l.Cols[c]
			for k, p := range lsub {
				col[k] = src[p]
			}
			b.Cols[c] = b.Cols[c][:w.n+take]
		}
		for c := lw; c < len(b.Cols); c++ {
			col := b.Cols[c][w.n : w.n+take]
			col = col[:len(rsub)]
			src := r.Cols[c-lw]
			for k, p := range rsub {
				if p >= 0 {
					col[k] = src[p]
				} else {
					col[k] = null
				}
			}
			b.Cols[c] = b.Cols[c][:w.n+take]
		}
		w.n += take
		off += take
	}
}

// AppendBatch appends every live row of src in order: dense sources copy
// column-wise, selective sources gather through their selection vector —
// the compaction path that turns a long list of sparse views into a few
// dense batches.
func (w *Writer) AppendBatch(src *Batch) {
	if src.Sel != nil {
		w.AppendGather(src, src.Sel)
		return
	}
	n := src.Len()
	for off := 0; off < n; {
		b := w.room()
		take := n - off
		if room := Size - w.n; take > room {
			take = room
		}
		for c := range b.Cols {
			col := b.Cols[c][:w.n+take]
			if c < len(src.Cols) {
				copy(col[w.n:], src.Cols[c][off:off+take])
			} else {
				for k := 0; k < take; k++ {
					col[w.n+k] = 0
				}
			}
			b.Cols[c] = col
		}
		w.n += take
		off += take
	}
}

// AppendGather appends the physical rows idx of src column-wise (the
// semi/anti-join emit fast path). Columns beyond src's width are
// zero-filled.
func (w *Writer) AppendGather(src *Batch, idx []int32) {
	for off := 0; off < len(idx); {
		b := w.room()
		take := len(idx) - off
		if room := Size - w.n; take > room {
			take = room
		}
		sub := idx[off : off+take]
		for c := range b.Cols {
			col := b.Cols[c][w.n : w.n+take]
			col = col[:len(sub)]
			if c < len(src.Cols) {
				sc := src.Cols[c]
				for k, p := range sub {
					col[k] = sc[p]
				}
			} else {
				for k := range col {
					col[k] = 0
				}
			}
			b.Cols[c] = b.Cols[c][:w.n+take]
		}
		w.n += take
		off += take
	}
}

// Len reports the rows appended so far.
func (w *Writer) Len() int { return Rows(w.done) + w.n }

// Finish seals the writer and returns the accumulated batches.
func (w *Writer) Finish() []*Batch {
	w.flush()
	out := w.done
	w.done = nil
	return out
}
