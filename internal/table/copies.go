package table

import "pref/internal/value"

// PartSet is a set of partition numbers, one bit each (⌈n/64⌉ words), so
// one code path serves any partition count.
type PartSet []uint64

// NewPartSet returns the empty set over n partitions.
func NewPartSet(n int) PartSet { return make(PartSet, (n+63)/64) }

// Add puts partition q into the set.
func (s PartSet) Add(q int) { s[q/64] |= 1 << (q % 64) }

// Has reports whether partition q is in the set.
func (s PartSet) Has(q int) bool { return s[q/64]&(1<<(q%64)) != 0 }

// Intersects reports whether the two sets share a partition.
func (s PartSet) Intersects(o PartSet) bool {
	for w := range s {
		if w < len(o) && s[w]&o[w] != 0 {
			return true
		}
	}
	return false
}

// CopyIndex records, for every stored row of one partition set, which
// partitions hold an identical full-row copy — the load-time fact PREF's
// dup index (§2.1) and partition index (§2.3) are built from, kept here in
// the form recovery asks about: can this row of a lost partition be read
// somewhere else? Where copies live depends on the stored data alone; which
// of them are reachable is the caller's alive set, applied at lookup time.
// Immutable after construction.
type CopyIndex struct {
	words int
	// group[p][i] numbers the distinct full-row content of partition p's
	// row i; sets holds one PartSet of `words` words per group.
	group [][]int32
	sets  []uint64
}

// BuildCopies indexes the copy locations of every row in parts, in one
// hashing pass over the first width columns of each row.
func BuildCopies(parts []*Partition, width int) *CopyIndex {
	ci := &CopyIndex{words: (len(parts) + 63) / 64, group: make([][]int32, len(parts))}
	cols := make([]int, width)
	for i := range cols {
		cols[i] = i
	}
	ids := make(map[value.Key]int32)
	for p, part := range parts {
		g := make([]int32, part.Len())
		for i := range g {
			k := value.MakeKeyAt(part.cols, i, cols)
			id, ok := ids[k]
			if !ok {
				id = int32(len(ids))
				ids[k] = id
				ci.sets = append(ci.sets, make([]uint64, ci.words)...)
			}
			g[i] = id
			ci.set(id).Add(p)
		}
		ci.group[p] = g
	}
	return ci
}

// Holders returns the set of partitions storing a copy of partition p's
// row i (p itself included). The result aliases the index: read-only.
func (ci *CopyIndex) Holders(p, i int) PartSet { return ci.set(ci.group[p][i]) }

func (ci *CopyIndex) set(id int32) PartSet {
	return PartSet(ci.sets[int(id)*ci.words : (int(id)+1)*ci.words])
}

// Missing counts the rows of partition p that have no copy on any
// partition in alive: the rows a loss of everything outside alive loses.
func (ci *CopyIndex) Missing(p int, alive PartSet) int {
	missing := 0
	for i := range ci.group[p] {
		if !ci.Holders(p, i).Intersects(alive) {
			missing++
		}
	}
	return missing
}

// Copies returns the copy index of this published version for a table of
// the given width, building it on first use. A Version is immutable, so the
// index never needs invalidating: publishing a table makes a new Version
// with an empty cache and leaves every other table's untouched, and an old
// index dies with its version. Recovery callers arrive together (every scan
// unit of a degraded query, from every concurrent query), hence the Once:
// they wait for one build instead of each running their own.
func (v *Version) Copies(width int) *CopyIndex {
	v.copiesOnce.Do(func() { v.copies = BuildCopies(v.Parts, width) })
	return v.copies
}
