package check

import (
	"fmt"
	"sort"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/table"
	"pref/internal/value"
)

// Store rules (VerifyStore). Where Verify and VerifyDesign prove the
// plan and the design, VerifyStore proves the *data*: after any sequence
// of write batches, crashes, and recoveries, the stored tuple copies and
// their index columns must still be exactly what the partitioning
// schemes promise. The write path (internal/bulkload) re-establishes
// these invariants after every recovery; this checker is the independent
// witness that it did.
const (
	// RuleWriteTorn marks partitions whose columns disagree in length — the
	// physical signature of a write that crashed between appending a row's
	// values and appending its index bits.
	RuleWriteTorn Rule = "write-torn"
	// RuleWriteDup marks duplicate-bit accounting breaches: a stored
	// value with no primary copy (every copy marked dup), a dup copy not
	// marked as partnered, dup or hasRef bits on schemes that never set
	// them, or replicated copies whose dup bits disagree with the
	// one-primary-per-table convention.
	RuleWriteDup Rule = "write-dup"
	// RuleWriteIndex marks stored copies whose placement is not justified
	// by the scheme: a hash/range copy outside its computed partition, a
	// partnered PREF copy stored at a partition the referenced table's
	// partition index does not contain for its ring key (the stored keys
	// must be covered by the partition index), or a hash-equivalent
	// orphan outside its mapped hash partition.
	RuleWriteIndex Rule = "write-index"
	// RuleWriteCount marks tables whose OriginalRows counter disagrees
	// with the stored primary copies.
	RuleWriteCount Rule = "write-count"
	// RuleWritePartner marks a stored row of a table L, referenced by a
	// PREF table M under a predicate that a declared foreign key from L to
	// a key of M pairs exactly, whose M partner is not stored on that row's
	// partition: a dangling reference, or a partner never copied there.
	// Covers (partition.Config.Covers) rely on every such partner being
	// local, and so does the join of L with M.
	RuleWritePartner Rule = "write-partner"
	// RuleWriteGap marks a stored row of a table whose foreign key declares
	// date gaps (catalog.DateGap) that stores NULL in a gapped date column,
	// or whose dates break a gap against the stored row it references. The
	// rewrite narrows filters by those gaps (plan's gap.go), so a row that
	// breaks one may drop out of a join it belongs to.
	RuleWriteGap Rule = "write-gap"
)

// VerifyStore checks every stored tuple copy of the database head
// against the partitioning configuration: partitions are not torn,
// dup/hasRef accounting matches each table's scheme, every copy's
// placement is justified, and the logical row counters agree with the
// stored primaries.
//
// It reads the live write head (the same state the loader mutates), not
// a pinned snapshot, so it also catches corruption that was never
// published. Call it from the writer's goroutine or with the write path
// quiesced — after bulkload recovery, at the end of a workload, or from
// tests. It returns nil when every invariant holds, or a Violations
// error listing every breach.
func VerifyStore(pdb *table.PartitionedDatabase, cfg *partition.Config) error {
	if pdb == nil || cfg == nil {
		return Violations{{Rule: RuleWriteTorn, Detail: "nil database or config"}}
	}
	var vs Violations
	names := make([]string, 0, len(pdb.Tables))
	for name := range pdb.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vs = append(vs, verifyTableStore(pdb, cfg, name)...)
	}
	if !vs.HasRule(RuleWriteTorn) {
		vs = append(vs, verifyPartners(pdb, cfg, names)...)
		vs = append(vs, verifyGaps(pdb)...)
	}
	if len(vs) == 0 {
		return nil
	}
	return vs
}

func verifyTableStore(pdb *table.PartitionedDatabase, cfg *partition.Config, name string) Violations {
	pt := pdb.Tables[name]
	ts := cfg.Scheme(name)
	if ts == nil {
		return Violations{{Rule: RuleWriteIndex, Table: name,
			Detail: "table stored but not covered by the partitioning config"}}
	}

	// Torn partitions first: the per-copy checks below index every column
	// by row position and need the lengths to agree.
	var vs Violations
	for p, part := range pt.Parts {
		if err := part.CheckInvariants(); err != nil {
			vs = append(vs, &Violation{Rule: RuleWriteTorn, Table: name,
				Detail: fmt.Sprintf("partition %d: %v", p, err)})
		}
	}
	if vs != nil {
		return vs
	}

	switch ts.Method {
	case partition.Hash, partition.Range, partition.RoundRobin:
		vs = append(vs, verifySingleCopy(pt, ts, cfg.NumPartitions)...)
	case partition.Replicated:
		vs = append(vs, verifyReplicated(pt)...)
	case partition.Pref:
		vs = append(vs, verifyPref(pdb, cfg, pt, ts)...)
	default:
		vs = append(vs, &Violation{Rule: RuleWriteIndex, Table: name,
			Detail: fmt.Sprintf("unsupported partitioning method %v", ts.Method)})
	}
	return vs
}

// verifyPartners checks, for every PREF table m whose referenced table l
// declares a foreign key to a key of m pairing exactly m's predicate, that
// every stored copy of an l row has its m partner on its own partition. It
// reads rows by position, so it runs only on a store with no torn
// partition.
func verifyPartners(pdb *table.PartitionedDatabase, cfg *partition.Config, names []string) Violations {
	var vs Violations
	for _, m := range names {
		ms := cfg.Scheme(m)
		if ms == nil || ms.Method != partition.Pref || pdb.Tables[ms.RefTable] == nil || !fkPairs(pdb.Schema, ms) {
			continue
		}
		lt := pdb.Tables[ms.RefTable]
		mt := pdb.Tables[m]
		mcols, err := mt.Meta.ColIndexes(ms.Pred.ReferencingCols)
		if err != nil {
			return Violations{{Rule: RuleWritePartner, Table: m, Detail: err.Error()}}
		}
		lcols, err := lt.Meta.ColIndexes(ms.Pred.ReferencedCols)
		if err != nil {
			return Violations{{Rule: RuleWritePartner, Table: ms.RefTable, Detail: err.Error()}}
		}
		for p, part := range lt.Parts {
			local := make(map[value.Key]bool, mt.Parts[p].Len())
			for _, row := range mt.Parts[p].Rows() {
				local[value.MakeKey(row, mcols)] = true
			}
			for i, row := range part.Rows() {
				if !local[value.MakeKey(row, lcols)] {
					vs = append(vs, &Violation{Rule: RuleWritePartner, Table: ms.RefTable,
						Detail: fmt.Sprintf("partition %d row %d: no %s partner by %s on its partition", p, i, m, ms.Pred)})
				}
			}
		}
	}
	return vs
}

// verifyGaps checks every declared date gap over the stored rows: each
// referencing row's gapped dates are set and lie within the gap of the
// dates of the row its key names, where that row is stored. It reads rows
// by position, so it runs only on a store with no torn partition.
func verifyGaps(pdb *table.PartitionedDatabase) Violations {
	if pdb.Schema == nil {
		return nil
	}
	var vs Violations
	for _, fk := range pdb.Schema.FKs {
		child, parent := pdb.Tables[fk.FromTable], pdb.Tables[fk.ToTable]
		if len(fk.Gaps) == 0 || len(fk.FromCols) != 1 || child == nil || parent == nil {
			continue
		}
		pk, ck := parent.Meta.ColIndex(fk.ToCols[0]), child.Meta.ColIndex(fk.FromCols[0])
		dates := map[int64][]int64{} // parent key → its gapped dates, in fk.Gaps order
		for _, part := range parent.Parts {
			for _, row := range part.Rows() {
				d := make([]int64, len(fk.Gaps))
				for i, g := range fk.Gaps {
					d[i] = row[parent.Meta.ColIndex(g.ParentDate)]
				}
				dates[row[pk]] = d
			}
		}
		for p, part := range child.Parts {
			for r, row := range part.Rows() {
				pd, named := dates[row[ck]]
				for i, g := range fk.Gaps {
					c := row[child.Meta.ColIndex(g.ChildDate)]
					switch {
					case c == value.Null || named && pd[i] == value.Null:
						vs = append(vs, &Violation{Rule: RuleWriteGap, Table: fk.FromTable,
							Detail: fmt.Sprintf("partition %d row %d: a NULL date under %s's gap %s − %s", p, r, fk.Name, g.ChildDate, g.ParentDate)})
					case named && (c-pd[i] < g.Min || c-pd[i] > g.Max):
						vs = append(vs, &Violation{Rule: RuleWriteGap, Table: fk.FromTable,
							Detail: fmt.Sprintf("partition %d row %d: %s − %s = %d days, outside %s's gap [%d, %d]",
								p, r, g.ChildDate, g.ParentDate, c-pd[i], fk.Name, g.Min, g.Max)})
					}
				}
			}
		}
	}
	return vs
}

// fkPairs reports whether the schema declares a foreign key from the PREF
// scheme ms's referenced table to a key of ms's table whose columns pair
// exactly as ms's predicate does: every referenced row then has exactly
// one partner under the predicate.
func fkPairs(s *catalog.Schema, ms *partition.TableScheme) bool {
	if s == nil {
		return false
	}
	for _, fk := range s.FKs {
		if fk.FromTable == ms.RefTable && fk.ToTable == ms.Table && fk.ToIsUnique &&
			ms.Pred.Equal(partition.Predicate{ReferencingCols: fk.ToCols, ReferencedCols: fk.FromCols}) {
			return true
		}
	}
	return false
}

// verifySingleCopy checks the dup-free single-copy schemes: every stored
// row is a primary with clear bits, and hash/range rows sit in the
// partition their key computes to. Round-robin imposes no placement.
func verifySingleCopy(pt *table.Partitioned, ts *partition.TableScheme, n int) Violations {
	var vs Violations
	var cols []int
	if ts.Method == partition.Hash || ts.Method == partition.Range {
		idx, err := pt.Meta.ColIndexes(ts.Cols)
		if err != nil {
			return Violations{{Rule: RuleWriteIndex, Table: pt.Meta.Name, Detail: err.Error()}}
		}
		cols = idx
	}
	stored := 0
	for p, part := range pt.Parts {
		stored += part.Len()
		for i, row := range part.Rows() {
			if part.Dup(i) || part.HasRef(i) {
				vs = append(vs, &Violation{Rule: RuleWriteDup, Table: pt.Meta.Name,
					Detail: fmt.Sprintf("partition %d row %d: dup/hasRef bits set on a %v table",
						p, i, ts.Method)})
				continue
			}
			var want int
			switch ts.Method {
			case partition.Hash:
				want = int(value.HashTuple(row, cols) % uint64(n))
			case partition.Range:
				want = partition.RangeTarget(row[cols[0]], ts.Bounds)
			default:
				continue
			}
			if want != p {
				vs = append(vs, &Violation{Rule: RuleWriteIndex, Table: pt.Meta.Name,
					Detail: fmt.Sprintf("partition %d row %d: %v placement computes partition %d",
						p, i, ts.Method, want)})
			}
		}
	}
	if stored != pt.OriginalRows {
		vs = append(vs, &Violation{Rule: RuleWriteCount, Table: pt.Meta.Name,
			Detail: fmt.Sprintf("%d stored rows but OriginalRows = %d", stored, pt.OriginalRows)})
	}
	return vs
}

// verifyReplicated checks the full-copy scheme: every partition holds
// the same row multiset, partition 0 holds the primaries (clear dup
// bits), and every other copy is marked dup so |T^P| accounting stays
// uniform.
func verifyReplicated(pt *table.Partitioned) Violations {
	var vs Violations
	allCols := make([]int, pt.Meta.NumCols())
	for i := range allCols {
		allCols[i] = i
	}
	multiset := func(part *table.Partition) map[value.Key]int {
		m := make(map[value.Key]int, part.Len())
		for _, row := range part.Rows() {
			m[value.MakeKey(row, allCols)]++
		}
		return m
	}
	var base map[value.Key]int
	for p, part := range pt.Parts {
		for i, n := 0, part.Len(); i < n; i++ {
			if part.HasRef(i) {
				vs = append(vs, &Violation{Rule: RuleWriteDup, Table: pt.Meta.Name,
					Detail: fmt.Sprintf("partition %d row %d: hasRef bit set on a replicated table", p, i)})
			}
			if part.Dup(i) != (p > 0) {
				vs = append(vs, &Violation{Rule: RuleWriteDup, Table: pt.Meta.Name,
					Detail: fmt.Sprintf("partition %d row %d: replicated dup bit = %v, want %v",
						p, i, part.Dup(i), p > 0)})
			}
		}
		if p == 0 {
			base = multiset(part)
			continue
		}
		m := multiset(part)
		if len(m) != len(base) || !sameCounts(base, m) {
			vs = append(vs, &Violation{Rule: RuleWriteIndex, Table: pt.Meta.Name,
				Detail: fmt.Sprintf("partition %d row multiset differs from partition 0", p)})
		}
	}
	if len(pt.Parts) > 0 && pt.Parts[0].Len() != pt.OriginalRows {
		vs = append(vs, &Violation{Rule: RuleWriteCount, Table: pt.Meta.Name,
			Detail: fmt.Sprintf("%d primary copies but OriginalRows = %d",
				pt.Parts[0].Len(), pt.OriginalRows)})
	}
	return vs
}

func sameCounts(a, b map[value.Key]int) bool {
	for k, c := range a {
		if b[k] != c {
			return false
		}
	}
	return true
}

// verifyPref checks the co-partitioning scheme of Section 2.1: every
// partnered copy (hasRef set) must be stored at a partition the
// referenced table's partition index contains for the copy's ring key —
// the stored keys are covered by the index, so PREF joins never miss a
// local partner. Duplicate copies must be partnered (orphans are
// single-copy and never generate dups), every stored value keeps at
// least one primary, hash-equivalent orphans sit in their mapped hash
// partition, and the primary count matches OriginalRows.
//
// Deliberately NOT checked: the reverse inclusion (index keys all
// materialized as stored copies) and hasRef freshness. Referenced-side
// inserts after a referencing tuple was placed widen the index without
// rewriting existing copies — the documented insert-order maintenance
// slack of the write path.
func verifyPref(pdb *table.PartitionedDatabase, cfg *partition.Config, pt *table.Partitioned, ts *partition.TableScheme) Violations {
	name := pt.Meta.Name
	ref := pdb.Tables[ts.RefTable]
	if ref == nil {
		return Violations{{Rule: RuleWriteIndex, Table: name,
			Detail: fmt.Sprintf("referenced table %s not stored", ts.RefTable)}}
	}
	lookup, err := partition.PartitionIndex(ref, ts.Pred.ReferencedCols)
	if err != nil {
		return Violations{{Rule: RuleWriteIndex, Table: name, Detail: err.Error()}}
	}
	ringCols, err := pt.Meta.ColIndexes(ts.Pred.ReferencingCols)
	if err != nil {
		return Violations{{Rule: RuleWriteIndex, Table: name, Detail: err.Error()}}
	}
	var orphanCols []int
	if mapped, ok := cfg.HashEquivalent(name); ok {
		oc, err := pt.Meta.ColIndexes(mapped)
		if err != nil {
			return Violations{{Rule: RuleWriteIndex, Table: name, Detail: err.Error()}}
		}
		orphanCols = oc
	}
	allCols := make([]int, pt.Meta.NumCols())
	for i := range allCols {
		allCols[i] = i
	}

	var vs Violations
	primaries := 0
	// Per distinct full-row value: how many primary copies survive. A
	// value whose every copy is marked dup lost its primary to a buggy
	// delete or torn replay.
	values := make(map[value.Key]int)
	for p, part := range pt.Parts {
		for i, row := range part.Rows() {
			dup, hasRef := part.Dup(i), part.HasRef(i)
			full := value.MakeKey(row, allCols)
			if !dup {
				primaries++
				values[full]++
			} else if _, seen := values[full]; !seen {
				values[full] += 0
			}
			if dup && !hasRef {
				vs = append(vs, &Violation{Rule: RuleWriteDup, Table: name,
					Detail: fmt.Sprintf("partition %d row %d: dup copy not marked partnered", p, i)})
			}
			if hasRef {
				if !containsInt(lookup(row, ringCols), p) {
					vs = append(vs, &Violation{Rule: RuleWriteIndex, Table: name,
						Detail: fmt.Sprintf(
							"partition %d row %d: partnered copy not covered by %s's partition index for its ring key",
							p, i, ts.RefTable)})
				}
				continue
			}
			if orphanCols != nil {
				want := int(value.HashTuple(row, orphanCols) % uint64(cfg.NumPartitions))
				if want != p {
					vs = append(vs, &Violation{Rule: RuleWriteIndex, Table: name,
						Detail: fmt.Sprintf(
							"partition %d row %d: hash-equivalent orphan maps to partition %d", p, i, want)})
				}
			}
		}
	}
	for full, d0 := range values {
		if d0 == 0 {
			vs = append(vs, &Violation{Rule: RuleWriteDup, Table: name,
				Detail: fmt.Sprintf("value %v: every stored copy marked dup, primary lost", full)})
		}
	}
	if primaries != pt.OriginalRows {
		vs = append(vs, &Violation{Rule: RuleWriteCount, Table: name,
			Detail: fmt.Sprintf("%d primary copies but OriginalRows = %d", primaries, pt.OriginalRows)})
	}
	return vs
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
