package batch

// Bloom is a register-blocked Bloom filter over int64 keys, the payload of a
// runtime join filter: a key maps to one 64-bit word and sets four bits in
// it, all drawn from one fixed 64-bit mix of the key, so an insert or a probe
// reads one word. A filter holds at least bloomBitsPerKey bits per key it was
// sized for, rounded up to a power-of-two number of words. It is
// deterministic — the same keys build the same words — and has no false
// negatives; at exactly 10 bits per key about 2 % of absent keys pass.
type Bloom struct {
	words []uint64
	shift uint // 64 − log2(len(words)): the mix's top bits pick the word
}

const bloomBitsPerKey = 10

// NewBloom returns an empty filter sized for n keys. For n ≤ 0 it has no
// words and holds nothing.
func NewBloom(n int) *Bloom {
	if n <= 0 {
		return &Bloom{}
	}
	need := (n*bloomBitsPerKey + 63) / 64
	words, log2 := 1, 0
	for words < need {
		words <<= 1
		log2++
	}
	return &Bloom{words: make([]uint64, words), shift: uint(64 - log2)}
}

// BloomOf builds the filter of keys.
func BloomOf(keys []int64) *Bloom {
	f := NewBloom(len(keys))
	for _, k := range keys {
		f.Add(k)
	}
	return f
}

// Add inserts key k.
func (f *Bloom) Add(k int64) {
	h := bloomMix(k)
	f.words[h>>f.shift] |= bloomBits(h)
}

// Bytes is the filter's size on the wire.
func (f *Bloom) Bytes() int { return 8 * len(f.words) }

// bloomMix is the splitmix64 finalizer: every bit of k reaches every bit of
// the result, so the word index (top bits) and the four bit positions (low
// 24 bits) are independent enough for a filter.
func bloomMix(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// bloomBits is the word mask of a mixed key: four 6-bit bit positions.
func bloomBits(h uint64) uint64 {
	return 1<<(h&63) | 1<<(h>>6&63) | 1<<(h>>12&63) | 1<<(h>>18&63)
}

// Blooms is the union of several filters — one per source partition of a
// runtime join filter: a key passes if any of them may hold it.
type Blooms []*Bloom

// Has reports whether k may be in any of the filters.
func (fs Blooms) Has(k int64) bool {
	h := bloomMix(k)
	bits := bloomBits(h)
	for _, f := range fs {
		if len(f.words) > 0 && f.words[h>>f.shift]&bits == bits {
			return true
		}
	}
	return false
}

// Select appends to sel the physical index of every live row of b whose key
// in column col may be held by one of the filters, and returns it. It
// allocates nothing when sel has room for b.Len() more rows.
func (fs Blooms) Select(sel []int32, b *Batch, col int) []int32 {
	c := b.cols[col]
	if b.sel == nil {
		for i, k := range c {
			if fs.Has(k) {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
	for _, phys := range b.sel {
		if fs.Has(c[phys]) {
			sel = append(sel, phys)
		}
	}
	return sel
}
