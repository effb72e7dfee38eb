package bulkload

import (
	"errors"
	"fmt"
	"slices"

	"pref/internal/batch"
	"pref/internal/catalog"
	"pref/internal/table"
	"pref/internal/value"
)

// Declared constraints.
//
// The loader keeps the constraints the schema declares, and the rewrite may
// rely on them (plan's gap.go): it plans no batch that would break one, so a
// rejected batch logs no intent and leaves the head and every epoch as they
// were. It rejects, with a *ConstraintError:
//
//   - a NULL in a gapped date column (catalog.Schema.Gapped), which its
//     gap makes NOT NULL;
//   - an insert whose foreign key names no stored row of the referenced
//     table, once that table holds rows: a bulk load may fill a referencing
//     table first where a PREF chain places the referenced table by it (SD
//     places orders by lineitem), and a row of a table loaded so names its
//     parent before the parent is stored;
//   - an insert whose foreign key's declared date gaps (catalog.DateGap) its
//     stored parent breaks, or, into the referenced table, that the stored
//     referencing rows naming it would break;
//   - an update of a gapped date column or of a column of a foreign key
//     that declares gaps.
//
// A parent or child is found through the key index the engine reads
// (table.Partition.KeyIndex) where the column carries one
// (catalog.Schema.KeyIndexed), else by scanning the column; every stored
// copy of a row holds the same values, so PREF duplicates change no answer.

// ErrConstraint is what every ConstraintError unwraps to.
var ErrConstraint = errors.New("bulkload: write breaks a declared constraint")

// ConstraintError is a write the schema's declared constraints reject.
type ConstraintError struct {
	Table string
	// Constraint names the foreign key the write breaks.
	Constraint string
	Detail     string
}

func (e *ConstraintError) Error() string {
	return fmt.Sprintf("bulkload: %s: %s: %s", e.Table, e.Constraint, e.Detail)
}

// Unwrap makes every ConstraintError an ErrConstraint.
func (e *ConstraintError) Unwrap() error { return ErrConstraint }

// checkInsert rejects row, bound for table pt, where it breaks a declared
// constraint.
func (l *Loader) checkInsert(pt *table.Partitioned, row value.Tuple) error {
	meta := pt.Meta
	for _, fk := range l.pdb.Schema.FKs {
		if err := nullGapped(fk, meta, row); err != nil {
			return err
		}
		if fk.FromTable == meta.Name {
			if err := l.checkParent(meta, fk, row); err != nil {
				return err
			}
		}
		if fk.ToTable == meta.Name && len(fk.Gaps) > 0 {
			if err := l.checkChildren(meta, fk, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkParent holds row of table meta to naming, through fk, a stored row
// of the referenced table, and to that row's dates by fk's gaps.
func (l *Loader) checkParent(meta *catalog.Table, fk catalog.ForeignKey, row value.Tuple) error {
	parent := l.pdb.Tables[fk.ToTable]
	if !fk.ToIsUnique || parent == nil || parent.StoredRows() == 0 {
		return nil
	}
	from, err := meta.ColIndexes(fk.FromCols)
	if err != nil {
		return err
	}
	to, err := parent.Meta.ColIndexes(fk.ToCols)
	if err != nil {
		return err
	}
	key := make(value.Tuple, len(from))
	for i, c := range from {
		if key[i] = row[c]; key[i] == value.Null {
			return nil // a NULL reference names nothing
		}
	}
	var found value.Tuple
	l.eachRow(parent, to, key, func(p value.Tuple) bool { found = p; return false })
	if found == nil {
		return &ConstraintError{meta.Name, fk.Name, fmt.Sprintf("%v names no stored %s row", key, fk.ToTable)}
	}
	return gapsHold(fk, meta, row, parent.Meta, found)
}

// checkChildren holds row of table meta, referenced through fk, to the dates
// of the stored rows that name it by fk's gaps.
func (l *Loader) checkChildren(meta *catalog.Table, fk catalog.ForeignKey, row value.Tuple) error {
	child := l.pdb.Tables[fk.FromTable]
	if child == nil {
		return nil
	}
	from, err := child.Meta.ColIndexes(fk.FromCols)
	if err != nil {
		return err
	}
	to, err := meta.ColIndexes(fk.ToCols)
	if err != nil {
		return err
	}
	key := make(value.Tuple, len(to))
	for i, c := range to {
		key[i] = row[c]
	}
	var broken error
	l.eachRow(child, from, key, func(c value.Tuple) bool {
		broken = gapsHold(fk, child.Meta, c, meta, row)
		return broken == nil
	})
	return broken
}

// nullGapped reports, as a ConstraintError, a NULL that row of table meta
// holds in a date column one of fk's gaps bounds.
func nullGapped(fk catalog.ForeignKey, meta *catalog.Table, row value.Tuple) error {
	for _, g := range fk.Gaps {
		col := ""
		switch meta.Name {
		case fk.FromTable:
			col = g.ChildDate
		case fk.ToTable:
			col = g.ParentDate
		}
		if col != "" && row[meta.ColIndex(col)] == value.Null {
			return &ConstraintError{meta.Name, fk.Name, fmt.Sprintf("gapped date %s is NULL", col)}
		}
	}
	return nil
}

// gapsHold reports, as a ConstraintError, a gap of fk that the referencing
// row crow of table cm and the referenced row prow of table pm break.
func gapsHold(fk catalog.ForeignKey, cm *catalog.Table, crow value.Tuple, pm *catalog.Table, prow value.Tuple) error {
	for _, g := range fk.Gaps {
		c, p := crow[cm.ColIndex(g.ChildDate)], prow[pm.ColIndex(g.ParentDate)]
		if !g.Holds(c, p) {
			return &ConstraintError{cm.Name, fk.Name, fmt.Sprintf("%s.%s %d and %s.%s %d are not [%d, %d] days apart",
				cm.Name, g.ChildDate, c, pm.Name, g.ParentDate, p, g.Min, g.Max)}
		}
	}
	return nil
}

// eachRow calls visit with every stored row of pt whose columns cols hold
// key, copies included, until visit returns false. Where the first column
// carries a key index, it looks the key up in an index of the partition's
// leading rows (table.Partition.PrefixKeyIndex) and scans the rows the
// batches since have appended, so a batch does not index again every
// partition the one before it cloned.
func (l *Loader) eachRow(pt *table.Partitioned, cols []int, key value.Tuple, visit func(value.Tuple) bool) {
	indexed := l.pdb.Schema.KeyIndexed(pt.Meta, pt.Meta.Columns[cols[0]].Name)
	for _, part := range pt.Parts {
		data := part.Columns(pt.Meta.NumCols()).Cols
		match := func(i int) bool {
			for k, c := range cols {
				if data[c][i] != key[k] {
					return false
				}
			}
			return true
		}
		scanned := 0
		if indexed {
			index, rows := part.PrefixKeyIndex(cols[0], func(c []int64) any { return batch.BuildInt64Table(c) })
			if index, ok := index.(*batch.Int64Table); ok {
				for r, ok := index.Head(key[0]); ok; r, ok = index.Next(r) {
					if match(int(r)) && !visit(part.Row(int(r))) {
						return
					}
				}
				scanned = rows
			}
		}
		for i := scanned; i < part.Len(); i++ {
			if match(i) && !visit(part.Row(i)) {
				return
			}
		}
	}
}

// checkUpdate rejects an update of column set of table meta that a declared
// date gap rules out.
func (l *Loader) checkUpdate(meta *catalog.Table, set string) error {
	tbl := meta.Name
	for _, fk := range l.pdb.Schema.FKs {
		for _, g := range fk.Gaps {
			if fk.FromTable == tbl && (g.ChildDate == set || slices.Contains(fk.FromCols, set)) ||
				fk.ToTable == tbl && (g.ParentDate == set || slices.Contains(fk.ToCols, set)) {
				return &ConstraintError{tbl, fk.Name, fmt.Sprintf("column %s is bound by a declared date gap and cannot be updated", set)}
			}
		}
	}
	return nil
}
