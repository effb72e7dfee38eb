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
// arrays every concurrent query reads. It holds by construction: the
// columns and the selection vector are unexported, and no exported function
// or method hands out a received batch's column or selection slice, only
// values (At, Row, Phys) and new batches. Loops that must walk the storage
// itself live here as kernels (Filter, Project, Int64Table, DistinctPref,
// Writer), so a write through a received batch, direct or through a local
// view, does not compile outside this package.
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
// rows. The columns hold int64-encoded values (see package value). A nil
// selection means every physical row is live, in storage order.
type Batch struct {
	// cols are the column vectors; all have the same length. They may be
	// shared, zero-copy, with table storage or with an upstream batch —
	// never write through them unless this batch owns its columns.
	cols [][]int64
	// sel is the selection vector: indexes of live physical rows in
	// ascending order. nil selects all rows.
	sel []int32
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
	if b.sel != nil {
		return len(b.sel)
	}
	if len(b.cols) == 0 {
		return 0
	}
	return len(b.cols[0])
}

// Width reports the number of columns.
func (b *Batch) Width() int { return len(b.cols) }

// Dense reports whether every physical row is live, in storage order: the
// batch has no selection vector.
func (b *Batch) Dense() bool { return b.sel == nil }

// Phys returns the physical row of live row i: its index into the columns.
func (b *Batch) Phys(i int) int {
	if b.sel != nil {
		return int(b.sel[i])
	}
	return i
}

// At returns the value of column c at live row i (selection applied).
func (b *Batch) At(i, c int) int64 { return b.cols[c][b.Phys(i)] }

// Row copies live row i into dst (len ≥ Width), returning the slice.
func (b *Batch) Row(i int, dst []int64) []int64 {
	dst = dst[:b.Width()]
	phys := b.Phys(i)
	for c, col := range b.cols {
		dst[c] = col[phys]
	}
	return dst
}

// View returns a zero-copy batch over externally owned column vectors
// (e.g. table storage). The caller promises the arrays are immutable for
// the batch's lifetime.
func View(cols [][]int64) *Batch { return &Batch{cols: cols} }

// WithSel returns a new batch over the same columns narrowed to sel. The
// receiver is not modified (batch-ownership rule: narrowing allocates a
// new header, never rewrites a shared one).
func (b *Batch) WithSel(sel []int32) *Batch {
	return &Batch{cols: b.cols, sel: sel}
}

// Select returns a new batch over the subset idx of b's column vectors, in
// idx order, sharing b's selection vector — how a copying operator reads only
// the columns it writes. The same ownership rule as WithSel: the view never
// owns pooled columns, so releasing it is a no-op and b stays the releaser.
func (b *Batch) Select(idx []int) *Batch {
	cols := make([][]int64, len(idx))
	for i, c := range idx {
		cols[i] = b.cols[c]
	}
	return &Batch{cols: cols, sel: b.sel}
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
		out = append(out, &Batch{cols: sub})
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
		if b.sel == nil {
			for i := 0; i < n; i++ {
				row := flat[i*w : i*w+w]
				for c, col := range b.cols {
					row[c] = col[i]
				}
			}
		} else {
			for c, col := range b.cols {
				for i, phys := range b.sel {
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
	if len(bs) == 1 && bs[0].sel == nil && bs[0].Width() == width {
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
		for c := 0; c < width && c < len(b.cols); c++ {
			src, dst := b.cols[c], cols[c]
			if b.sel == nil {
				copy(dst[off:off+bn], src[:bn])
			} else {
				for i, phys := range b.sel {
					dst[off+i] = src[phys]
				}
			}
		}
		off += bn
	}
	return &Batch{cols: cols}
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
		if b.sel != nil || b.Width() != width || b.Len() == 0 {
			return nil
		}
	}
	cols := make([][]int64, width)
	for c := 0; c < width; c++ {
		if cap(bs[0].cols[c]) < n {
			return nil
		}
		ext := bs[0].cols[c][:n]
		off := len(bs[0].cols[c])
		for _, b := range bs[1:] {
			if &ext[off] != &b.cols[c][0] {
				return nil
			}
			off += len(b.cols[c])
		}
		cols[c] = ext
	}
	return &Batch{cols: cols}
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
	for c := range w.cur.cols {
		w.cur.cols[c] = w.cur.cols[c][:w.n]
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
	for c := range b.cols {
		b.cols[c] = append(b.cols[c], t[c])
	}
	w.n++
}

// AppendFrom appends live row i of src (selection applied). Columns beyond
// src's width are zero-filled; src columns beyond the writer's width are
// dropped.
func (w *Writer) AppendFrom(src *Batch, i int) {
	b := w.room()
	phys := src.Phys(i)
	for c := range b.cols {
		var v int64
		if c < len(src.cols) {
			v = src.cols[c][phys]
		}
		b.cols[c] = append(b.cols[c], v)
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
		for c := 0; c < lw && c < len(b.cols); c++ {
			col := b.cols[c][w.n : w.n+take]
			col = col[:len(lsub)]
			src := l.cols[c]
			for k, p := range lsub {
				col[k] = src[p]
			}
			b.cols[c] = b.cols[c][:w.n+take]
		}
		for c := lw; c < len(b.cols); c++ {
			col := b.cols[c][w.n : w.n+take]
			col = col[:len(rsub)]
			src := r.cols[c-lw]
			for k, p := range rsub {
				if p >= 0 {
					col[k] = src[p]
				} else {
					col[k] = null
				}
			}
			b.cols[c] = b.cols[c][:w.n+take]
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
	if src.sel != nil {
		w.AppendGather(src, src.sel)
		return
	}
	n := src.Len()
	for off := 0; off < n; {
		b := w.room()
		take := n - off
		if room := Size - w.n; take > room {
			take = room
		}
		for c := range b.cols {
			col := b.cols[c][:w.n+take]
			if c < len(src.cols) {
				copy(col[w.n:], src.cols[c][off:off+take])
			} else {
				for k := 0; k < take; k++ {
					col[w.n+k] = 0
				}
			}
			b.cols[c] = col
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
		for c := range b.cols {
			col := b.cols[c][w.n : w.n+take]
			col = col[:len(sub)]
			if c < len(src.cols) {
				sc := src.cols[c]
				for k, p := range sub {
					col[k] = sc[p]
				}
			} else {
				for k := range col {
					col[k] = 0
				}
			}
			b.cols[c] = b.cols[c][:w.n+take]
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
