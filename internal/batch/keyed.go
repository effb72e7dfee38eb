package batch

import "math/bits"

// Exact key sets and keyed reads: the kernels of a local runtime filter.
// Such a filter keeps, on partition p, exactly the rows whose key is among
// source partition p's keys, which an Int64Table of those keys holds. Where
// it filters a base-table scan over an indexed key column, the partition is
// read through an Int64Table over the stored column instead (Fetch): each
// distinct source key is looked up once, and only the rows it names are
// visited.

// AppendColumn appends column col of every live row of bs, in order, to dst
// and returns it: a copy the caller owns.
func AppendColumn(dst []int64, bs []*Batch, col int) []int64 {
	for _, b := range bs {
		c := b.cols[col]
		if b.sel == nil {
			dst = append(dst, c...)
			continue
		}
		for _, phys := range b.sel {
			dst = append(dst, c[phys])
		}
	}
	return dst
}

// Distinct reports the number of distinct keys the table holds.
func (t *Int64Table) Distinct() int { return t.distinct }

// Select appends to sel the physical index of every live row of b whose key
// in column col the table holds, and returns it: the exact filter. It
// allocates nothing when sel has room for b.Len() more rows.
func (t *Int64Table) Select(sel []int32, b *Batch, col int) []int32 {
	c := b.cols[col]
	if b.sel == nil {
		for i, k := range c {
			if _, ok := t.Head(k); ok {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
	for _, phys := range b.sel {
		if _, ok := t.Head(c[phys]); ok {
			sel = append(sel, phys)
		}
	}
	return sel
}

// RowSet is a set of the row ids of one indexed column, as a bitmap: the
// rows a keyed read fetched.
type RowSet struct {
	words []uint64
	n     int
}

// Len reports the number of rows in the set.
func (s *RowSet) Len() int { return s.n }

// Fetch returns the rows of index whose key keys holds. It looks each of
// keys' distinct keys up in index once and walks that key's chain, so it
// visits keys.Distinct() keys and the rows it returns, none of the others.
func (index *Int64Table) Fetch(keys *Int64Table) *RowSet {
	s := &RowSet{words: make([]uint64, (len(index.keys)+63)/64)}
	for _, slot := range keys.slots {
		if slot == 0 {
			continue
		}
		for r, ok := index.Head(keys.keys[slot-1]); ok; r, ok = index.Next(r) {
			s.words[r>>6] |= 1 << (r & 63)
			s.n++
		}
	}
	return s
}

// Narrow narrows bs, whose live rows in order are rows 0, 1, … of the
// set's column, to the rows in the set: each batch that keeps a row is
// shared under a fresh selection vector, in order, as a filter narrows it.
// The vectors are windows of one array, each clipped to its length.
func (s *RowSet) Narrow(bs []*Batch) []*Batch {
	var out []*Batch
	all := make([]int32, 0, s.n)
	off := 0
	for _, b := range bs {
		n, start := b.Len(), len(all)
		for w := off >> 6; w < len(s.words) && w<<6 < off+n; w++ {
			for word := s.words[w]; word != 0; word &= word - 1 {
				r := w<<6 + bits.TrailingZeros64(word)
				if r >= off && r < off+n {
					all = append(all, int32(b.Phys(r-off)))
				}
			}
		}
		if len(all) > start {
			out = append(out, b.WithSel(all[start:len(all):len(all)]))
		}
		off += n
	}
	return out
}
