// Package catalog holds schema metadata: tables, columns, primary keys and
// referential constraints. The design algorithms (Sections 3 and 4 of the
// paper) consume this metadata to build schema graphs; the partitioner and
// engine use it to resolve column positions and string dictionaries.
package catalog

import (
	"fmt"
	"slices"
	"sort"

	"pref/internal/value"
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	Kind value.Kind
}

// ForeignKey is a referential constraint from one table's columns to
// another table's columns (usually its primary key). Design algorithms
// treat each constraint as a potential equi-join path.
type ForeignKey struct {
	Name       string   // constraint name, e.g. "fk_orders_customer"
	FromTable  string   // referencing table
	FromCols   []string // referencing columns
	ToTable    string   // referenced table
	ToCols     []string // referenced columns (unique in ToTable)
	ToIsUnique bool     // whether ToCols is a key of ToTable
}

// Table describes one relation.
type Table struct {
	Name    string
	Columns []Column
	PK      []string // primary key column names (may be empty)

	colIndex map[string]int
	dicts    map[string]*value.Dict // per Str column
}

// NewTable builds a table description. Column names must be unique.
func NewTable(name string, cols []Column, pk ...string) (*Table, error) {
	t := &Table{
		Name:     name,
		Columns:  cols,
		PK:       pk,
		colIndex: make(map[string]int, len(cols)),
		dicts:    make(map[string]*value.Dict),
	}
	for i, c := range cols {
		if _, dup := t.colIndex[c.Name]; dup {
			return nil, fmt.Errorf("catalog: table %s: duplicate column %s", name, c.Name)
		}
		t.colIndex[c.Name] = i
		if c.Kind == value.Str {
			t.dicts[c.Name] = value.NewDict()
		}
	}
	for _, p := range pk {
		if _, ok := t.colIndex[p]; !ok {
			return nil, fmt.Errorf("catalog: table %s: pk column %s not defined", name, p)
		}
	}
	return t, nil
}

// MustTable is NewTable that panics on error. The panic is reserved for
// the programmer-error invariant of a statically known (source-literal)
// schema; fallible paths — loaders, user-supplied schemas — must use
// NewTable and handle the error.
func MustTable(name string, cols []Column, pk ...string) *Table {
	t, err := NewTable(name, cols, pk...)
	if err != nil {
		// lint:invariant
		panic(err)
	}
	return t
}

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIndex[name]; ok {
		return i
	}
	return -1
}

// ColIndexes maps column names to positions, erroring on unknown names.
func (t *Table) ColIndexes(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		idx := t.ColIndex(n)
		if idx < 0 {
			return nil, fmt.Errorf("catalog: table %s has no column %s", t.Name, n)
		}
		out[i] = idx
	}
	return out, nil
}

// Dict returns the string dictionary for a Str column, or nil.
func (t *Table) Dict(col string) *value.Dict { return t.dicts[col] }

// NumCols reports the arity of the table.
func (t *Table) NumCols() int { return len(t.Columns) }

// IsPK reports whether the given column list is exactly the primary key.
func (t *Table) IsPK(cols []string) bool {
	if len(cols) != len(t.PK) || len(t.PK) == 0 {
		return false
	}
	a := append([]string(nil), cols...)
	b := append([]string(nil), t.PK...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Schema is a set of tables plus referential constraints.
type Schema struct {
	Name   string
	tables map[string]*Table
	order  []string // insertion order, for deterministic iteration
	FKs    []ForeignKey
}

// NewSchema returns an empty named schema.
func NewSchema(name string) *Schema {
	return &Schema{Name: name, tables: make(map[string]*Table)}
}

// AddTable registers a table; duplicate names are an error.
func (s *Schema) AddTable(t *Table) error {
	if _, dup := s.tables[t.Name]; dup {
		return fmt.Errorf("catalog: schema %s: duplicate table %s", s.Name, t.Name)
	}
	s.tables[t.Name] = t
	s.order = append(s.order, t.Name)
	return nil
}

// MustAddTable is AddTable that panics on error. Reserved for
// programmer-error invariants (statically known schemas; Without copying
// an already-valid schema, where duplicates are impossible). Fallible
// paths must use AddTable and handle the error.
func (s *Schema) MustAddTable(t *Table) {
	if err := s.AddTable(t); err != nil {
		// lint:invariant
		panic(err)
	}
}

// AddFK registers a referential constraint after validating both ends.
func (s *Schema) AddFK(fk ForeignKey) error {
	from, ok := s.tables[fk.FromTable]
	if !ok {
		return fmt.Errorf("catalog: fk %s: unknown table %s", fk.Name, fk.FromTable)
	}
	to, ok := s.tables[fk.ToTable]
	if !ok {
		return fmt.Errorf("catalog: fk %s: unknown table %s", fk.Name, fk.ToTable)
	}
	if len(fk.FromCols) == 0 || len(fk.FromCols) != len(fk.ToCols) {
		return fmt.Errorf("catalog: fk %s: column lists must be non-empty and equal length", fk.Name)
	}
	if _, err := from.ColIndexes(fk.FromCols); err != nil {
		return err
	}
	if _, err := to.ColIndexes(fk.ToCols); err != nil {
		return err
	}
	s.FKs = append(s.FKs, fk)
	return nil
}

// MustAddFK is AddFK that panics on error. Reserved for the
// programmer-error invariant of statically known constraints; fallible
// paths (runtime-discovered constraints) must use AddFK.
func (s *Schema) MustAddFK(fk ForeignKey) {
	if err := s.AddFK(fk); err != nil {
		// lint:invariant
		panic(err)
	}
}

// KeyIndexed reports whether column col of table t carries a key index: it
// leads t's primary key or is any column of one of t's declared foreign keys.
// These are the columns InnoDB indexes on a node under TPC-H's declared keys:
// it indexes the primary key and every foreign key, and TPC-H declares each
// column of its one compound foreign key a foreign key of its own too
// (L_PARTKEY references PART and L_SUPPKEY references SUPPLIER, beside the
// pair's reference to PARTSUPP, the only one the schema records).
func (s *Schema) KeyIndexed(t *Table, col string) bool {
	if len(t.PK) > 0 && t.PK[0] == col {
		return true
	}
	for _, fk := range s.FKs {
		if fk.FromTable == t.Name && slices.Contains(fk.FromCols, col) {
			return true
		}
	}
	return false
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table { return s.tables[name] }

// Tables returns all tables in insertion order.
func (s *Schema) Tables() []*Table {
	out := make([]*Table, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.tables[n])
	}
	return out
}

// TableNames returns table names in insertion order.
func (s *Schema) TableNames() []string {
	return append([]string(nil), s.order...)
}

// Without returns a copy of the schema with the named tables (and any
// constraint touching them) removed. The design algorithms use this to
// exclude small fully-replicated tables before partitioning (Section 3.1).
func (s *Schema) Without(names ...string) *Schema {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	out := NewSchema(s.Name)
	for _, n := range s.order {
		if !drop[n] {
			out.MustAddTable(s.tables[n])
		}
	}
	for _, fk := range s.FKs {
		if !drop[fk.FromTable] && !drop[fk.ToTable] {
			out.FKs = append(out.FKs, fk)
		}
	}
	return out
}
