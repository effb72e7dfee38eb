package value

import "encoding/binary"

// Key is a composite join/group key built from one or more encoded values.
// It is a string so it can index Go maps directly; the bytes are the
// little-endian concatenation of the values, making equality exact.
type Key string

// MakeKey builds a composite key from the given columns of a tuple.
func MakeKey(t Tuple, cols []int) Key {
	buf := make([]byte, 8*len(cols))
	for i, c := range cols {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(t[c]))
	}
	return Key(buf)
}

// MakeKeyAt builds the key MakeKey builds, from row i of column-major data.
func MakeKeyAt(data [][]int64, i int, cols []int) Key {
	buf := make([]byte, 8*len(cols))
	for k, c := range cols {
		binary.LittleEndian.PutUint64(buf[k*8:], uint64(data[c][i]))
	}
	return Key(buf)
}

// Key2 is a key of at most Key2Cols columns held as a comparable
// fixed-width value: the columns' values in order, zero-padded. Building
// one allocates nothing, so the load path's maps — the join-key
// histograms, the partition index and PREF placement — key on it. Two
// Key2s of the same columns are equal exactly when their Keys are; a key
// of more columns is a Key.
type Key2 [Key2Cols]int64

// Key2Cols is the widest key a Key2 holds. Every foreign key and PREF
// predicate of TPC-H and TPC-DS fits.
const Key2Cols = 2

// MakeKey2 builds the Key2 of the given columns of a tuple; cols must not
// be longer than Key2Cols.
func MakeKey2(t Tuple, cols []int) Key2 {
	var k Key2
	for i, c := range cols {
		k[i] = t[c]
	}
	return k
}

// MakeKey2At builds the key MakeKey2 builds, from row i of column-major
// data.
func MakeKey2At(data [][]int64, i int, cols []int) Key2 {
	var k Key2
	for j, c := range cols {
		k[j] = data[c][i]
	}
	return k
}

// Keys are the two builders of one key type K, from a tuple and from a
// row of column-major data, so code that keys a map by columns is written
// once over K: Narrow for keys of at most Key2Cols columns, Wide for any.
type Keys[K comparable] struct {
	Of func(t Tuple, cols []int) K
	At func(data [][]int64, i int, cols []int) K
}

var (
	// Narrow builds Key2s.
	Narrow = Keys[Key2]{MakeKey2, MakeKey2At}
	// Wide builds Keys.
	Wide = Keys[Key]{MakeKey, MakeKeyAt}
)

// MakeKey1 builds a single-column key without a column-index slice.
func MakeKey1(v int64) Key {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	return Key(buf[:])
}

// Hash returns a 64-bit FNV-1a hash of the key, used to pick a partition.
func (k Key) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	return h
}

// HashTuple hashes the given columns of a tuple directly, without building
// an intermediate Key. HashTuple(t, cols) == MakeKey(t, cols).Hash().
func HashTuple(t Tuple, cols []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range cols {
		v := uint64(t[c])
		for s := 0; s < 64; s += 8 {
			h ^= (v >> uint(s)) & 0xff
			h *= prime64
		}
	}
	return h
}
