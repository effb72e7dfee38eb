package batch

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
)

// Exact key sets and keyed reads: the kernels of a runtime filter. A local
// filter keeps, on partition p, exactly the rows whose key is among source
// partition p's keys, which an Int64Table of those keys holds; a shipped one
// keeps the rows whose key is among any source partition's keys, which every
// node decodes from the shipped sets (EncodeKeySet, DecodeKeySet) into one
// Int64Table. Where a filter reads a base-table scan over an indexed key
// column, the partition is read through an Int64Table over the stored column
// instead (Fetch): each distinct key of the filter is looked up once, and
// only the rows it names are visited.

// EncodeKeySet returns the wire form of a key set, which ships one source
// partition of a runtime filter: keys' sorted distinct values, the first as
// a zigzag varint and every later one as the uvarint gap from the one before
// it. keys is not modified. No keys encode to no bytes.
func EncodeKeySet(keys []int64) []byte {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	if len(sorted) == 0 {
		return nil
	}
	enc := make([]byte, 0, binary.MaxVarintLen64+len(sorted))
	enc = binary.AppendVarint(enc, sorted[0])
	for i := 1; i < len(sorted); i++ {
		enc = binary.AppendUvarint(enc, uint64(sorted[i])-uint64(sorted[i-1]))
	}
	return enc
}

var errKeySet = errors.New("batch: malformed key set")

// DecodeKeySet appends the keys of the wire form enc to dst, ascending, and
// returns it. It fails on a truncated varint or one past 64 bits, a zero
// gap, and a gap past the largest int64: EncodeKeySet writes none of them.
func DecodeKeySet(dst []int64, enc []byte) ([]int64, error) {
	if len(enc) == 0 {
		return dst, nil
	}
	k, w := binary.Varint(enc)
	if w <= 0 {
		return dst, errKeySet
	}
	dst = append(dst, k)
	for enc = enc[w:]; len(enc) > 0; enc = enc[w:] {
		var gap uint64
		gap, w = binary.Uvarint(enc)
		if w <= 0 || gap == 0 || gap > uint64(math.MaxInt64)-uint64(k) {
			return dst, errKeySet
		}
		k += int64(gap)
		dst = append(dst, k)
	}
	return dst, nil
}

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
