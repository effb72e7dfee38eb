// Package plan implements logical SPJA query plans (selection, projection,
// join, aggregation) and the bottom-up rewrite of Section 2.2 that makes
// them correct and efficient over PREF-partitioned databases: it tracks the
// Dup/Part properties of every intermediate result, inserts re-partitioning
// and PREF-duplicate-elimination operators only where co-location cannot be
// proven, and rewrites semi/anti joins into hasRef-index filters.
package plan

import (
	"fmt"

	"pref/internal/value"
)

// Null is the sentinel for SQL NULL in int64-encoded tuples (produced by
// outer joins; skipped by COUNT/SUM/MIN/MAX/AVG).
const Null = value.Null

// Field is one column of an intermediate result. Names are alias-qualified
// ("o.custkey"); the hidden PREF index columns are named "<alias>.__dup"
// and "<alias>.__hasref".
type Field struct {
	Name string
	Kind value.Kind
}

// Schema is the ordered column list of an intermediate result.
type Schema []Field

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustIndex is Index that panics on unknown names. The panic is reserved
// for programmer-error invariants: rewrite-internal lookups of columns the
// rewriter itself introduced. Fallible paths — the engine binding a
// runtime-supplied plan — must use IndexOf/Indexes and surface the error.
func (s Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		// lint:invariant
		panic(fmt.Sprintf("plan: unknown column %q in schema %v", name, s.Names()))
	}
	return i
}

// IndexOf returns the position of the named column, or an error when the
// schema does not contain it. Engine operators bind plans through this so
// a malformed plan surfaces as a query error, not a goroutine panic.
func (s Schema) IndexOf(name string) (int, error) {
	i := s.Index(name)
	if i < 0 {
		return 0, fmt.Errorf("plan: unknown column %q in schema %v", name, s.Names())
	}
	return i, nil
}

// Indexes resolves several column names at once via IndexOf.
func (s Schema) Indexes(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		idx, err := s.IndexOf(n)
		if err != nil {
			return nil, err
		}
		out[i] = idx
	}
	return out, nil
}

// Names returns all column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Concat returns the concatenation of two schemas (join output).
func (s Schema) Concat(t Schema) Schema {
	out := make(Schema, 0, len(s)+len(t))
	out = append(out, s...)
	out = append(out, t...)
	return out
}

// DupCol returns the hidden dup-index column name for a table alias.
func DupCol(alias string) string { return alias + ".__dup" }

// HasRefCol returns the hidden hasRef-index column name for a table alias.
func HasRefCol(alias string) string { return alias + ".__hasref" }

// Qualify returns the alias-qualified column name.
func Qualify(alias, col string) string { return alias + "." + col }
