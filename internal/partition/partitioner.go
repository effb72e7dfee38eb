package partition

import (
	"fmt"

	"pref/internal/table"
	"pref/internal/value"
)

// Apply partitions every table of db according to the config, producing a
// partitioned database with populated dup/hasRef index columns.
//
// Tables are processed referenced-before-referencing so that a PREF table
// sees the final (possibly duplicated) partitions of its referenced table —
// this is what makes redundancy cumulative along PREF chains (Section 3.3).
// Every table in db must have a scheme in the config.
func Apply(db *table.Database, cfg *Config) (*table.PartitionedDatabase, error) {
	if err := cfg.Validate(db.Schema); err != nil {
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

	out := &table.PartitionedDatabase{
		Schema: db.Schema,
		Tables: make(map[string]*table.Partitioned),
		N:      cfg.NumPartitions,
	}
	for _, name := range order {
		data, ok := db.Tables[name]
		if !ok {
			return nil, fmt.Errorf("partition: config references table %s absent from database", name)
		}
		pt, err := applyOne(data, cfg, out)
		if err != nil {
			return nil, err
		}
		out.Tables[name] = pt
	}
	return out, nil
}

func applyOne(data *table.Data, cfg *Config, done *table.PartitionedDatabase) (*table.Partitioned, error) {
	ts := cfg.Scheme(data.Meta.Name)
	n := cfg.NumPartitions
	pt := table.NewPartitioned(data.Meta, n)
	pt.OriginalRows = data.Len()
	// An even share plus a little skew; PREF duplicates and range skew
	// grow past it.
	share := data.Len()/n + data.Len()/(16*n) + 1
	if ts.Method == Replicated {
		share = data.Len()
	}
	for _, part := range pt.Parts {
		part.Reserve(share)
	}

	switch ts.Method {
	case Hash:
		cols, err := data.Meta.ColIndexes(ts.Cols)
		if err != nil {
			return nil, err
		}
		for _, row := range data.Rows {
			p := int(value.HashTuple(row, cols) % uint64(n))
			pt.Parts[p].Append(row, false, false)
		}

	case RoundRobin:
		for i, row := range data.Rows {
			pt.Parts[i%n].Append(row, false, false)
		}

	case Range:
		col := data.Meta.ColIndex(ts.Cols[0])
		for _, row := range data.Rows {
			p := rangePartition(row[col], ts.Bounds)
			pt.Parts[p].Append(row, false, false)
		}

	case Replicated:
		pt.Replicated = true
		for p := 0; p < n; p++ {
			for _, row := range data.Rows {
				// Copies beyond the first are marked dup so |T^P|
				// accounting stays uniform, but replicated scans are
				// routed to a single copy rather than dedup-filtered.
				pt.Parts[p].Append(row, p > 0, false)
			}
		}

	case Pref:
		ref := done.Tables[ts.RefTable]
		if ref == nil {
			return nil, fmt.Errorf("partition: referenced table %s not partitioned before %s",
				ts.RefTable, data.Meta.Name)
		}
		var orphanCols []int
		if mapped, ok := cfg.HashEquivalent(data.Meta.Name); ok {
			idx, err := data.Meta.ColIndexes(mapped)
			if err != nil {
				return nil, err
			}
			orphanCols = idx
		}
		if err := prefPartition(data, ts, ref, pt, orphanCols); err != nil {
			return nil, err
		}

	default:
		return nil, fmt.Errorf("partition: table %s: unsupported method %v", data.Meta.Name, ts.Method)
	}
	return pt, nil
}

// RangeTarget returns the partition a value falls into under the given
// ascending range bounds; exported for partition pruning.
func RangeTarget(v int64, bounds []int64) int { return rangePartition(v, bounds) }

// rangePartition returns the index of the first bound greater than v, so
// bounds [10, 20] split values into (-inf,10), [10,20), [20,inf).
func rangePartition(v int64, bounds []int64) int {
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

// prefPartition implements Definition 1. A tuple r of the referencing table
// is copied into every partition i where some tuple s ∈ P_i(S) satisfies
// the partitioning predicate (condition 1); tuples with no partitioning
// partner anywhere are assigned to a partition of their own (condition 2)
// with hasRef=0 — round-robin normally, or by hashing orphanCols when the
// table is hash-equivalent (preserving the equivalence; any placement
// satisfies condition 2). The first stored copy of each tuple gets dup=0,
// later copies dup=1.
func prefPartition(data *table.Data, ts *TableScheme, ref *table.Partitioned, pt *table.Partitioned, orphanCols []int) error {
	refCols, err := ref.Meta.ColIndexes(ts.Pred.ReferencedCols)
	if err != nil {
		return err
	}
	ringCols, err := data.Meta.ColIndexes(ts.Pred.ReferencingCols)
	if err != nil {
		return err
	}

	idx := buildPartitionIndex(ref, refCols)

	rr := 0
	n := len(pt.Parts)
	for _, row := range data.Rows {
		key := value.MakeKey(row, ringCols)
		targets := idx[key]
		if len(targets) == 0 {
			p := rr % n
			if orphanCols != nil {
				p = int(value.HashTuple(row, orphanCols) % uint64(n))
			}
			pt.Parts[p].Append(row, false, false)
			rr++
			continue
		}
		for i, p := range targets {
			pt.Parts[p].Append(row, i > 0, true)
		}
	}
	return nil
}

// buildPartitionIndex maps each distinct referenced-column key of a
// partitioned table to the sorted set of partitions containing it. This is
// also the "partition index" used for bulk loading (Section 2.3).
func buildPartitionIndex(ref *table.Partitioned, refCols []int) map[value.Key][]int {
	idx := make(map[value.Key][]int)
	width := ref.Meta.NumCols()
	for p, part := range ref.Parts {
		data := part.Columns(width).Cols
		for i, n := 0, part.Len(); i < n; i++ {
			key := value.MakeKeyAt(data, i, refCols)
			ps := idx[key]
			// Partitions are scanned in ascending order, so p is a
			// duplicate only if it equals the last recorded partition.
			if len(ps) == 0 || ps[len(ps)-1] != p {
				idx[key] = append(ps, p)
			}
		}
	}
	return idx
}

// ApplyPref PREF-partitions a single table against an already-partitioned
// referenced table, without going through a full Config. Used by tests that
// pin the referenced table's exact placement (e.g. the paper's Figure 2)
// and by the bulk loader.
func ApplyPref(data *table.Data, ts *TableScheme, ref *table.Partitioned) (*table.Partitioned, error) {
	if ts.Method != Pref {
		return nil, fmt.Errorf("partition: ApplyPref requires a PREF scheme, got %v", ts.Method)
	}
	pt := table.NewPartitioned(data.Meta, ref.NumPartitions())
	pt.OriginalRows = data.Len()
	if err := prefPartition(data, ts, ref, pt, nil); err != nil {
		return nil, err
	}
	return pt, nil
}

// PartitionIndex exposes buildPartitionIndex for the bulk loader.
func PartitionIndex(ref *table.Partitioned, refColNames []string) (map[value.Key][]int, error) {
	cols, err := ref.Meta.ColIndexes(refColNames)
	if err != nil {
		return nil, err
	}
	return buildPartitionIndex(ref, cols), nil
}
