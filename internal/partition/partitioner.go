package partition

import (
	"fmt"
	"slices"

	"pref/internal/catalog"
	"pref/internal/par"
	"pref/internal/table"
	"pref/internal/value"
)

// NewStore returns the empty partitioned database of a configuration: one
// table of cfg.NumPartitions empty partitions per configured table, with
// replicated tables marked as such. Apply fills it offline; the bulk
// loader fills it (or any store Apply built) batch by batch.
func NewStore(s *catalog.Schema, cfg *Config) (*table.PartitionedDatabase, error) {
	if err := cfg.Validate(s); err != nil {
		return nil, err
	}
	pdb := &table.PartitionedDatabase{
		Schema: s,
		Tables: make(map[string]*table.Partitioned, len(cfg.Schemes)),
		N:      cfg.NumPartitions,
	}
	for name, ts := range cfg.Schemes {
		pt := table.NewPartitioned(s.Table(name), cfg.NumPartitions)
		pt.Replicated = ts.Method == Replicated
		pdb.Tables[name] = pt
	}
	return pdb, nil
}

// Apply partitions every table of db according to the config, producing a
// partitioned database with populated dup/hasRef index columns: it places
// each table's rows through its Placer into the empty store.
//
// Tables are processed referenced-before-referencing so that a PREF table
// sees the final (possibly duplicated) partitions of its referenced table —
// this is what makes redundancy cumulative along PREF chains (Section 3.3).
// Every table in db must have a scheme in the config.
func Apply(db *table.Database, cfg *Config) (*table.PartitionedDatabase, error) {
	out, err := NewStore(db.Schema, cfg)
	if err != nil {
		return nil, err
	}
	for name := range db.Tables {
		if cfg.Scheme(name) == nil {
			return nil, fmt.Errorf("partition: no scheme for table %s", name)
		}
	}
	order, err := cfg.Order()
	if err != nil {
		return nil, err
	}
	for _, name := range order {
		data, ok := db.Tables[name]
		if !ok {
			return nil, fmt.Errorf("partition: config references table %s absent from database", name)
		}
		if err := place(data, cfg, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// place stores every row of data into its empty table of out, whose
// referenced tables are already placed. It runs in three passes, so that
// all but the cursor's bookkeeping uses every core, and builds the store
// that placing the rows one at a time through Placer.Place builds:
//
//  1. On parallel workers over row chunks, each row's targets by
//     Placer.Target; the partition index is only read.
//  2. In row order, the rows Target left to the round-robin cursor take
//     its slots, and each partition's row count is taken, per chunk: so
//     every stored copy has its slot, each partition's rows in row order.
//  3. On the same workers and chunks, each row is copied into its slots
//     of the partitions' exactly sized columns. A worker reads its rows
//     in order, and no two write the same slot.
func place(data *table.Data, cfg *Config, out *table.PartitionedDatabase) error {
	pt := out.Tables[data.Meta.Name]
	var lookup func(value.Tuple, []int) []int
	if ts := cfg.Scheme(data.Meta.Name); ts.Method == Pref {
		var err error
		if lookup, err = PartitionIndex(out.Tables[ts.RefTable], ts.Pred.ReferencedCols); err != nil {
			return err
		}
	}
	pl, err := NewPlacer(cfg, pt.Meta, lookup)
	if err != nil {
		return err
	}
	rows := data.Rows
	pt.OriginalRows = len(rows)
	bounds := par.Split(len(rows), placeGrain)
	chunks := len(bounds) - 1

	targets := make([][]int, len(rows))
	hasRef := make([]bool, len(rows))
	par.Each(chunks, func(c int) {
		for i := bounds[c]; i < bounds[c+1]; i++ {
			targets[i], hasRef[i] = pl.Target(rows[i])
		}
	})

	// slots[c][p] is the slot of chunk c's first copy in partition p.
	width := pt.Meta.NumCols()
	slots := make([][]int, chunks)
	counts := make([]int, out.N)
	for c := range slots {
		slots[c] = slices.Clone(counts)
		for i := bounds[c]; i < bounds[c+1]; i++ {
			if len(rows[i]) != width {
				return fmt.Errorf("partition: table %s: row %d has arity %d, want %d", pt.Meta.Name, i, len(rows[i]), width)
			}
			if targets[i] == nil {
				targets[i] = pl.next(&pt.Cursor)
			}
			for _, p := range targets[i] {
				counts[p]++
			}
		}
	}

	cols := make([][][]int64, out.N)
	par.Each(out.N, func(p int) { cols[p] = pt.Parts[p].Extend(counts[p]) })
	par.Each(chunks, func(c int) {
		next := slots[c]
		for i := bounds[c]; i < bounds[c+1]; i++ {
			row, ref := rows[i], table.Flag(hasRef[i])
			for j, p := range targets[i] {
				dst, at := cols[p], next[p]
				next[p]++
				for k, v := range row {
					dst[k][at] = v
				}
				dst[width][at] = table.Flag(j > 0)
				dst[width+1][at] = ref
			}
		}
	})
	return nil
}

// placeGrain is the fewest rows a worker of place takes: a small table
// is placed on one goroutine.
const placeGrain = 4096

// Placer is the placement rule of one table under a configuration: it maps
// a row to the partitions that store its copies. Every row of the system
// is placed through a Placer — by Apply when a table is partitioned and by
// the bulk loader when rows are inserted later — so the two place alike.
// A Placer is never modified after NewPlacer, so one serves every batch of
// its table for as long as its lookup stays valid.
type Placer struct {
	method Method
	// cols are the Hash columns, the Range column, or PREF's referencing
	// columns.
	cols   []int
	bounds []int64
	// lookup maps a PREF row, by its referencing columns, to the
	// partitions of the referenced table that hold a partitioning partner.
	lookup func(row value.Tuple, cols []int) []int
	// orphanCols place PREF orphans by hash when the table is
	// hash-equivalent; nil places them round-robin.
	orphanCols []int
	// all is 0..n−1: a replicated row's targets, and all[p:p+1] is the
	// single target p.
	all []int
}

// NewPlacer returns the placer of table meta, which must have a scheme in
// cfg. lookup resolves PREF partners: given a row and its referencing
// columns, the partitions whose referenced rows match them (the partition
// index of Section 2.3, or anything that answers alike). It builds the key
// itself, so the key stays on its stack; it is unused for other schemes.
func NewPlacer(cfg *Config, meta *catalog.Table, lookup func(row value.Tuple, cols []int) []int) (*Placer, error) {
	ts := cfg.Scheme(meta.Name)
	pl := &Placer{method: ts.Method, bounds: ts.Bounds, lookup: lookup, all: make([]int, cfg.NumPartitions)}
	for p := range pl.all {
		pl.all[p] = p
	}
	var err error
	switch ts.Method {
	case Hash, Range:
		pl.cols, err = meta.ColIndexes(ts.Cols)
	case Pref:
		if pl.cols, err = meta.ColIndexes(ts.Pred.ReferencingCols); err != nil {
			return nil, err
		}
		if mapped, ok := cfg.HashEquivalent(meta.Name); ok {
			pl.orphanCols, err = meta.ColIndexes(mapped)
		}
	case RoundRobin, Replicated:
	default:
		err = fmt.Errorf("partition: table %s: unsupported method %v", meta.Name, ts.Method)
	}
	if err != nil {
		return nil, err
	}
	return pl, nil
}

// Place returns the partitions that store a copy of row and whether its
// copies have a partitioning partner (hasRef). The first partition holds
// the primary copy (dup=0), every later one a duplicate (dup=1). The
// slice is shared with the placer and the partition index: never write
// it. cursor is the table's round-robin cursor: a row placed round-robin
// goes to partition *cursor mod n and advances it.
//
// A PREF row implements Definition 1: it is copied into every partition
// holding a partner (condition 1); a row with no partner anywhere is an
// orphan stored once with hasRef=0 (condition 2) — by hashing the
// hash-equivalent columns when the table has them, which preserves the
// equivalence, and round-robin otherwise.
func (pl *Placer) Place(row value.Tuple, cursor *int) (parts []int, hasRef bool) {
	if parts, hasRef = pl.Target(row); parts == nil {
		parts = pl.next(cursor)
	}
	return parts, hasRef
}

// Target is Place without the cursor: a row Place would give the
// round-robin cursor's next slot gets nil. It writes nothing, so it is
// safe for concurrent use whenever the placer's lookup is.
func (pl *Placer) Target(row value.Tuple) (parts []int, hasRef bool) {
	switch pl.method {
	case Hash:
		return pl.one(HashTarget(row, pl.cols, len(pl.all))), false
	case RoundRobin:
		return nil, false
	case Range:
		return pl.one(RangeTarget(row[pl.cols[0]], pl.bounds)), false
	case Replicated:
		return pl.all, false
	}
	if ps := pl.lookup(row, pl.cols); len(ps) > 0 {
		return ps, true
	}
	if pl.orphanCols != nil {
		return pl.one(HashTarget(row, pl.orphanCols, len(pl.all))), false
	}
	return nil, false
}

func (pl *Placer) one(p int) []int { return pl.all[p : p+1] }

func (pl *Placer) next(cursor *int) []int {
	p := *cursor % len(pl.all)
	*cursor++
	return pl.one(p)
}

// HashTarget returns the partition hash placement stores a row in: the
// hash of its columns cols modulo n partitions.
func HashTarget(row value.Tuple, cols []int, n int) int {
	return int(value.HashTuple(row, cols) % uint64(n))
}

// RangeTarget returns the partition a value falls into under the given
// ascending range bounds: the index of the first bound greater than v, so
// bounds [10, 20] split values into (-inf,10), [10,20), [20,inf).
func RangeTarget(v int64, bounds []int64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// PartitionIndex builds the "partition index" of Section 2.3 that both
// partitions and bulk loads PREF tables: each distinct key of the
// referenced columns of a partitioned table maps to the sorted set of
// partitions containing it. It returns the index's lookup, which takes a
// referencing row and its referencing columns — the lookup NewPlacer
// takes. A key of at most value.Key2Cols columns is a value.Key2, so
// neither building the index nor probing it allocates per row; a wider
// key is a value.Key.
func PartitionIndex(ref *table.Partitioned, refColNames []string) (func(row value.Tuple, cols []int) []int, error) {
	refCols, err := ref.Meta.ColIndexes(refColNames)
	if err != nil {
		return nil, err
	}
	if len(refCols) <= value.Key2Cols {
		return indexBy(ref, refCols, value.Narrow), nil
	}
	return indexBy(ref, refCols, value.Wide), nil
}

// indexBy builds PartitionIndex's index on keys of type K. The keys are
// split into one shard per worker by their first column's value, and the
// workers build the shards in parallel, each scanning every partition in
// ascending order for the keys of its own shard.
func indexBy[K comparable](ref *table.Partitioned, refCols []int, kb value.Keys[K]) func(value.Tuple, []int) []int {
	shards := make([]indexShard[K], par.Workers())
	n := uint64(len(shards))
	width := ref.Meta.NumCols()
	par.Each(len(shards), func(s int) {
		sh := &shards[s]
		sh.idx = make(map[K]int32)
		sh.sets = partSets{sets: [][]int{nil}, next: make(map[[2]int32]int32)}
		for p, part := range ref.Parts {
			data := part.Columns(width).Cols
			first := data[refCols[0]]
			for i, v := range first {
				if n > 1 && shardOf(v, n) != s {
					continue
				}
				key := kb.At(data, i, refCols)
				id := sh.idx[key]
				// Partitions are scanned in ascending order, so p is a
				// duplicate only if it equals the last recorded partition.
				if ps := sh.sets.sets[id]; len(ps) == 0 || ps[len(ps)-1] != p {
					sh.idx[key] = sh.sets.add(id, p)
				}
			}
		}
	})
	if n == 1 {
		sh := &shards[0]
		return func(row value.Tuple, cols []int) []int { return sh.sets.sets[sh.idx[kb.Of(row, cols)]] }
	}
	return func(row value.Tuple, cols []int) []int {
		sh := &shards[shardOf(row[cols[0]], n)]
		return sh.sets.sets[sh.idx[kb.Of(row, cols)]]
	}
}

// indexShard is the part of a partition index whose keys one worker
// builds: each key's interned partition set.
type indexShard[K comparable] struct {
	idx  map[K]int32
	sets partSets
}

// shardOf spreads a key's first column value over n shards.
func shardOf(v int64, n uint64) int {
	return int((uint64(v) * 0x9e3779b97f4a7c15 >> 32) % n)
}

// partSets interns the partition sets of one partition index, so keys
// stored on the same partitions share one set: sets[0] is the empty set,
// and next maps a set and a partition above its members to the set that
// adds it.
type partSets struct {
	sets [][]int
	next map[[2]int32]int32
}

// add returns the set of set id plus partition p.
func (s *partSets) add(id int32, p int) int32 {
	step := [2]int32{id, int32(p)}
	if n, ok := s.next[step]; ok {
		return n
	}
	n := int32(len(s.sets))
	s.sets = append(s.sets, append(slices.Clip(s.sets[id]), p))
	s.next[step] = n
	return n
}
