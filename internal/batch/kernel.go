package batch

import (
	"encoding/binary"

	"pref/internal/plan"
	"pref/internal/value"
)

// Kernels: the tight inner loops of the vectorized operators. Each kernel
// takes batches in, produces selection vectors or fresh pooled batches out,
// and never writes through its input's columns.
//
// Semantics are pinned to the row engine: comparisons run on the raw
// encoded int64 payloads (even Float columns — the row engine compares bit
// patterns in filters too), NULL operands fail every comparison, and keys
// and hashes are byte-identical to value.MakeKey / value.HashTuple.

// Filter narrows b to rows satisfying p, returning a new batch sharing b's
// columns under a fresh selection vector. Each conjunct of p's top-level
// conjunction that compares a column with a literal runs as a
// type-specialized column loop; only the others fall back to the compiled
// row evaluator.
func Filter(b *Batch, p *plan.VPred) *Batch {
	n := b.Len()
	if n == 0 {
		return b.WithSel(nil)
	}
	sel := make([]int32, 0, n)
	sel = appendSelected(sel, b, p)
	return b.WithSel(sel)
}

// appendSelected appends the physical indexes of b's live rows that satisfy
// p. The column-vs-literal conjuncts run first, as column loops: the first
// over b's live rows, each later one over the survivors in place. The other
// conjuncts then narrow what is left row by row, each gathering only the
// columns it reads.
func appendSelected(sel []int32, b *Batch, p *plan.VPred) []int32 {
	var buf [8]*plan.VPred
	legs := appendLegs(buf[:0], p)
	start, looped := len(sel), false
	for _, leg := range legs {
		col, op, lit, ok := colLitCmp(leg)
		switch {
		case !ok:
		case !looped:
			sel, looped = selCmpLit(sel, b, col, op, lit), true
		default:
			sel = keepCmpLit(sel, start, b.cols[col], op, lit)
		}
	}
	if !looped {
		sel = appendLive(sel, b)
	}
	var row, scratch []int64
	var colBuf [8]int
	for _, leg := range legs {
		if _, _, _, ok := colLitCmp(leg); ok || len(sel) == start {
			continue
		}
		if row == nil {
			row, scratch = make([]int64, b.Width()), scratchFor(p)
		}
		cols := leg.AppendCols(colBuf[:0])
		kept := start
		for _, phys := range sel[start:] {
			for _, c := range cols {
				row[c] = b.cols[c][phys]
			}
			if leg.EvalRow(row, scratch) {
				sel[kept] = phys
				kept++
			}
		}
		sel = sel[:kept]
	}
	return sel
}

// appendLegs appends the conjuncts of p's top-level conjunction, nested
// conjunctions flattened; an empty conjunction has none.
func appendLegs(dst []*plan.VPred, p *plan.VPred) []*plan.VPred {
	if p.Op != plan.VAnd {
		return append(dst, p)
	}
	for _, k := range p.Kids {
		dst = appendLegs(dst, k)
	}
	return dst
}

// appendLive appends the physical indexes of b's live rows.
func appendLive(sel []int32, b *Batch) []int32 {
	if b.sel != nil {
		return append(sel, b.sel...)
	}
	for i := range b.Len() {
		sel = append(sel, int32(i))
	}
	return sel
}

func scratchFor(p *plan.VPred) []int64 {
	if n := p.MaxFuncArgs(); n > 0 {
		return make([]int64, n)
	}
	return nil
}

// colLitCmp recognizes the `column <op> literal` shape (either operand
// order; the column side must be non-NULL-producing VCol).
func colLitCmp(p *plan.VPred) (col int, op plan.CmpOp, lit int64, ok bool) {
	if p.Op != plan.VCmp {
		return 0, 0, 0, false
	}
	if p.L.Op == plan.VCol && p.R.Op == plan.VLit {
		return p.L.Col, p.Cmp, p.R.Lit, true
	}
	if p.L.Op == plan.VLit && p.R.Op == plan.VCol {
		if flipped, can := flipCmp(p.Cmp); can {
			return p.R.Col, flipped, p.L.Lit, true
		}
	}
	return 0, 0, 0, false
}

// flipCmp rewrites `lit <op> col` as `col <op'> lit`.
func flipCmp(op plan.CmpOp) (plan.CmpOp, bool) {
	switch op {
	case plan.EQ:
		return plan.EQ, true
	case plan.NE:
		return plan.NE, true
	case plan.LT:
		return plan.GT, true
	case plan.LE:
		return plan.GE, true
	case plan.GT:
		return plan.LT, true
	case plan.GE:
		return plan.LE, true
	}
	return op, false
}

// selCmpLit is the hot filter loop: one column against one literal, one
// branch-per-operator dispatch outside the loop. A NULL literal selects
// nothing (matching the row engine: NULL comparisons are false).
func selCmpLit(sel []int32, b *Batch, col int, op plan.CmpOp, lit int64) []int32 {
	if lit == plan.Null {
		return sel
	}
	c := b.cols[col]
	if b.sel == nil {
		switch op {
		case plan.EQ:
			for i, v := range c {
				if v == lit {
					sel = append(sel, int32(i))
				}
			}
		case plan.NE:
			for i, v := range c {
				if v != lit && v != plan.Null {
					sel = append(sel, int32(i))
				}
			}
		case plan.LT:
			for i, v := range c {
				if v < lit && v != plan.Null {
					sel = append(sel, int32(i))
				}
			}
		case plan.LE:
			for i, v := range c {
				if v <= lit && v != plan.Null {
					sel = append(sel, int32(i))
				}
			}
		case plan.GT:
			for i, v := range c {
				if v > lit {
					sel = append(sel, int32(i))
				}
			}
		case plan.GE:
			for i, v := range c {
				if v >= lit {
					sel = append(sel, int32(i))
				}
			}
		}
		return sel
	}
	for _, phys := range b.sel {
		if cmpKeep(c[phys], op, lit) {
			sel = append(sel, phys)
		}
	}
	return sel
}

// cmpKeep applies one encoded comparison with NULL-fails semantics.
// plan.Null is math.MinInt64, so v > lit and v >= lit can never spuriously
// admit it (lit itself is checked non-NULL by the caller); the other
// operators need the explicit guard.
func cmpKeep(v int64, op plan.CmpOp, lit int64) bool {
	if v == plan.Null {
		return false
	}
	switch op {
	case plan.EQ:
		return v == lit
	case plan.NE:
		return v != lit
	case plan.LT:
		return v < lit
	case plan.LE:
		return v <= lit
	case plan.GT:
		return v > lit
	default:
		return v >= lit
	}
}

// keepCmpLit narrows sel[start:], physical indexes into c, in place to those
// whose value passes one comparison with a literal, with cmpKeep's
// semantics, and returns sel cut to the survivors.
func keepCmpLit(sel []int32, start int, c []int64, op plan.CmpOp, lit int64) []int32 {
	if lit == plan.Null {
		return sel[:start]
	}
	kept := start
	for _, phys := range sel[start:] {
		if cmpKeep(c[phys], op, lit) {
			sel[kept] = phys
			kept++
		}
	}
	return sel[:kept]
}

// Project evaluates exprs over b's live rows into a fresh dense pooled
// batch. Pure column picks copy with a single gather loop per output
// column; computed expressions fall back to the compiled row evaluator.
func Project(b *Batch, exprs []*plan.VExpr) *Batch {
	n := b.Len()
	out := get(len(exprs))
	for c := range out.cols {
		out.cols[c] = grow(out.cols[c], n)
	}
	var row, scratch []int64
	for c, e := range exprs {
		dst := out.cols[c]
		switch e.Op {
		case plan.VCol:
			src := b.cols[e.Col]
			if b.sel == nil {
				copy(dst, src[:n])
			} else {
				for i, phys := range b.sel {
					dst[i] = src[phys]
				}
			}
		case plan.VLit:
			for i := range dst {
				dst[i] = e.Lit
			}
		default:
			if row == nil {
				row = make([]int64, b.Width())
			}
			if len(scratch) < len(e.Cols) {
				scratch = make([]int64, len(e.Cols))
			}
			for i := 0; i < n; i++ {
				out.cols[c][i] = e.EvalRow(b.Row(i, row), scratch)
			}
		}
	}
	return out
}

// grow returns s resized to n, reallocating only when capacity is short.
func grow(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}

// Int64Table is an open-addressed hash table from int64 join keys to chains
// of row ids — the single-column equi-join build side. Equal-key rows chain
// in ascending row order (Head then Next), matching the candidate order the
// row engine's append-built lists produce, so emit order is identical.
// Probes are a fibonacci-hash plus linear scan over a flat int32 slot
// array: no per-row allocation, no map overhead.
type Int64Table struct {
	keys     []int64 // the build column, borrowed from the caller
	slots    []int32 // row id + 1; 0 = empty
	next     []int32 // next[i] = next row with keys[i]'s key, -1 = end
	mask     uint64
	shift    uint
	distinct int // keys with a chain
}

const fib64 = 0x9E3779B97F4A7C15

// BuildInt64Table indexes keys (one per build row). The slice is retained,
// not copied; the caller must keep it immutable while probing.
func BuildInt64Table(keys []int64) *Int64Table { return buildInt64Table(keys, false) }

// buildInt64Table is BuildInt64Table, leaving the rows whose key is
// plan.Null out of every chain when skipNull is set.
func buildInt64Table(keys []int64, skipNull bool) *Int64Table {
	n := len(keys)
	size := 8
	for size < 2*n {
		size <<= 1
	}
	log2 := 0
	for 1<<log2 < size {
		log2++
	}
	t := &Int64Table{
		keys:  keys,
		slots: make([]int32, size),
		next:  make([]int32, n),
		mask:  uint64(size - 1),
		shift: uint(64 - log2),
	}
	// Insert in reverse row order, prepending to each key's chain, so a
	// forward walk visits rows ascending.
	for i := n - 1; i >= 0; i-- {
		k := keys[i]
		if skipNull && k == plan.Null {
			t.next[i] = -1
			continue
		}
		h := (uint64(k) * fib64) >> t.shift
		for {
			s := t.slots[h]
			if s == 0 {
				t.next[i] = -1
				t.slots[h] = int32(i) + 1
				t.distinct++
				break
			}
			if t.keys[s-1] == k {
				t.next[i] = s - 1
				t.slots[h] = int32(i) + 1
				break
			}
			h = (h + 1) & t.mask
		}
	}
	return t
}

// IndexColumn builds the Int64Table of column c over the physical rows of b,
// so the table's row ids index b's columns. The join passes its flattened
// (dense) build side; the column is retained, not copied, and b's columns are
// immutable to every holder outside this package. A row whose key is
// plan.Null is left out: an equi-join's NULL key matches nothing.
func IndexColumn(b *Batch, c int) *Int64Table { return buildInt64Table(b.cols[c], true) }

// Head returns the first build row with key k, if any.
func (t *Int64Table) Head(k int64) (int32, bool) {
	h := (uint64(k) * fib64) >> t.shift
	for {
		s := t.slots[h]
		if s == 0 {
			return 0, false
		}
		if t.keys[s-1] == k {
			return s - 1, true
		}
		h = (h + 1) & t.mask
	}
}

// Next returns the build row chained after i, if any.
func (t *Int64Table) Next(i int32) (int32, bool) {
	if n := t.next[i]; n >= 0 {
		return n, true
	}
	return 0, false
}

// AppendMatches is the single-key inner join's probe: for each live row of b
// in order, it appends one pair per build row whose key equals column c's
// value there, in chain order — b's physical row to li and the build row to
// ri.
func (t *Int64Table) AppendMatches(li, ri []int32, b *Batch, c int) ([]int32, []int32) {
	key := b.cols[c]
	if b.sel == nil {
		for i, k := range key {
			for r, ok := t.Head(k); ok; r, ok = t.Next(r) {
				li = append(li, int32(i))
				ri = append(ri, r)
			}
		}
		return li, ri
	}
	for _, phys := range b.sel {
		for r, ok := t.Head(key[phys]); ok; r, ok = t.Next(r) {
			li = append(li, phys)
			ri = append(ri, r)
		}
	}
	return li, ri
}

// DistinctPref narrows b to its rows of which at least one of the dup
// columns reads 0 or Null (Section 2.2's distinct over PREF duplicates; a
// Null flag marks a row an outer join null-extended, which has no copy of
// that table at all and exists exactly once). Like Filter it shares b's
// columns under a fresh selection vector; it returns nil when no row
// survives.
func DistinctPref(b *Batch, dupCols []int) *Batch {
	n := b.Len()
	sel := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		phys := b.Phys(i)
		for _, j := range dupCols {
			if v := b.cols[j][phys]; v == 0 || v == plan.Null {
				sel = append(sel, int32(phys))
				break
			}
		}
	}
	if len(sel) == 0 {
		return nil
	}
	return b.WithSel(sel)
}

// KeyBuf is a reusable composite-key buffer for allocation-free map probes:
// Encode fills it, and Probe indexes a map with it without interning the
// string (the Go compiler elides the conversion's copy for map index
// expressions).
type KeyBuf struct {
	buf []byte
}

// NewKeyBuf sizes a key buffer for nCols key columns.
func NewKeyBuf(nCols int) *KeyBuf { return &KeyBuf{buf: make([]byte, 8*nCols)} }

// Encode fills the buffer with the composite key of live row i of b over
// cols, byte-identical to value.MakeKey on the materialized row.
func (kb *KeyBuf) Encode(b *Batch, i int, cols []int) {
	phys := b.Phys(i)
	for j, c := range cols {
		binary.LittleEndian.PutUint64(kb.buf[j*8:], uint64(b.cols[c][phys]))
	}
}

// Probe indexes m with kb's current contents without allocating. (A free
// function because Go methods cannot take type parameters.)
func Probe[V any](kb *KeyBuf, m map[value.Key]V) (V, bool) {
	v, ok := m[value.Key(kb.buf)]
	return v, ok
}

// Key interns the current buffer contents as an owned value.Key (allocates;
// use for map insertion).
func (kb *KeyBuf) Key() value.Key { return value.Key(string(kb.buf)) }

// HashRow hashes the key columns of live row i of b, identical to
// value.HashTuple on the materialized row.
func HashRow(b *Batch, i int, cols []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	phys := b.Phys(i)
	h := uint64(offset64)
	for _, c := range cols {
		v := uint64(b.cols[c][phys])
		for s := 0; s < 64; s += 8 {
			h ^= (v >> uint(s)) & 0xff
			h *= prime64
		}
	}
	return h
}
