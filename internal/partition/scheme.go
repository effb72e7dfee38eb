// Package partition implements the horizontal partitioning schemes of the
// paper: the classical schemes (HASH, ROUND-ROBIN, RANGE, REPLICATED) and
// the paper's contribution, predicate-based reference partitioning (PREF,
// Definition 1). A Config assigns one scheme per table; Apply materializes
// a partitioned database with the dup/hasRef index columns.
package partition

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"pref/internal/catalog"
)

// Method identifies a partitioning scheme.
type Method int

const (
	// Hash partitions by a hash of the partitioning columns.
	Hash Method = iota
	// RoundRobin assigns tuples to partitions cyclically.
	RoundRobin
	// Range partitions by comparing a single column against split bounds.
	Range
	// Replicated stores a full copy of the table on every node.
	Replicated
	// Pref co-partitions a table by a referenced table under a
	// partitioning predicate (the paper's contribution).
	Pref
)

func (m Method) String() string {
	switch m {
	case Hash:
		return "HASH"
	case RoundRobin:
		return "ROUND_ROBIN"
	case Range:
		return "RANGE"
	case Replicated:
		return "REPLICATED"
	case Pref:
		return "PREF"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Predicate is a conjunctive equi-join partitioning predicate between a
// referencing table R and a referenced table S:
// R.ReferencingCols[i] = S.ReferencedCols[i] for all i.
// Only equi-predicates are supported (Section 2.1): other predicates would
// drive a PREF table to full replication.
type Predicate struct {
	ReferencingCols []string
	ReferencedCols  []string
}

// String renders the predicate as "r.a=s.x AND r.b=s.y".
func (p Predicate) String() string {
	parts := make([]string, len(p.ReferencingCols))
	for i := range p.ReferencingCols {
		parts[i] = p.ReferencingCols[i] + "=" + p.ReferencedCols[i]
	}
	return strings.Join(parts, " AND ")
}

// Equal reports whether two predicates are identical (same columns in the
// same pairing, order-insensitive across conjuncts).
func (p Predicate) Equal(q Predicate) bool {
	if len(p.ReferencingCols) != len(q.ReferencingCols) {
		return false
	}
	pairs := func(pr Predicate) []string {
		out := make([]string, len(pr.ReferencingCols))
		for i := range pr.ReferencingCols {
			out[i] = pr.ReferencingCols[i] + "=" + pr.ReferencedCols[i]
		}
		sort.Strings(out)
		return out
	}
	a, b := pairs(p), pairs(q)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TableScheme is the partitioning scheme chosen for one table.
type TableScheme struct {
	Table  string
	Method Method

	// Cols are the partitioning columns for Hash, or the single bound
	// column for Range.
	Cols []string
	// Bounds are the ascending split points for Range (len = parts−1).
	Bounds []int64

	// RefTable and Pred describe a PREF scheme: this table references
	// RefTable under partitioning predicate Pred.
	RefTable string
	Pred     Predicate
}

func (ts *TableScheme) String() string {
	switch ts.Method {
	case Hash:
		return fmt.Sprintf("%s HASH(%s)", ts.Table, strings.Join(ts.Cols, ","))
	case Range:
		return fmt.Sprintf("%s RANGE(%s)", ts.Table, strings.Join(ts.Cols, ","))
	case Pref:
		return fmt.Sprintf("%s PREF on %s by %s", ts.Table, ts.RefTable, ts.Pred)
	default:
		return fmt.Sprintf("%s %s", ts.Table, ts.Method)
	}
}

// Config is a partitioning configuration: a scheme per table plus the
// number of partitions (= logical nodes).
type Config struct {
	NumPartitions int
	Schemes       map[string]*TableScheme
}

// NewConfig returns an empty configuration for n partitions.
func NewConfig(n int) *Config {
	return &Config{NumPartitions: n, Schemes: make(map[string]*TableScheme)}
}

// Set registers (or replaces) the scheme for one table and returns the
// config for chaining.
func (c *Config) Set(ts *TableScheme) *Config {
	c.Schemes[ts.Table] = ts
	return c
}

// SetHash registers a hash scheme.
func (c *Config) SetHash(table string, cols ...string) *Config {
	return c.Set(&TableScheme{Table: table, Method: Hash, Cols: cols})
}

// SetReplicated registers a replicated scheme.
func (c *Config) SetReplicated(table string) *Config {
	return c.Set(&TableScheme{Table: table, Method: Replicated})
}

// SetPref registers a PREF scheme: table references refTable under the
// equi-predicate table.cols[i] = refTable.refCols[i].
func (c *Config) SetPref(tbl, refTable string, cols, refCols []string) *Config {
	return c.Set(&TableScheme{
		Table: tbl, Method: Pref, RefTable: refTable,
		Pred: Predicate{ReferencingCols: cols, ReferencedCols: refCols},
	})
}

// Scheme returns the scheme for a table, or nil.
func (c *Config) Scheme(table string) *TableScheme { return c.Schemes[table] }

// SeedTable resolves the seed table of a table's PREF chain: the first
// table along the partitioning-predicate path that is not PREF partitioned
// (Definition 1). For a non-PREF table it returns the table itself.
// It returns an error on a dangling reference or a cycle.
func (c *Config) SeedTable(table string) (string, error) {
	seen := map[string]bool{}
	cur := table
	for {
		ts := c.Schemes[cur]
		if ts == nil {
			return "", fmt.Errorf("partition: no scheme for table %s", cur)
		}
		if ts.Method != Pref {
			return cur, nil
		}
		if seen[cur] {
			return "", fmt.Errorf("partition: PREF cycle through table %s", cur)
		}
		seen[cur] = true
		cur = ts.RefTable
	}
}

// Chain returns the PREF reference chain from a table down to (and
// including) its seed table, e.g. [customer orders lineitem].
func (c *Config) Chain(table string) ([]string, error) {
	if _, err := c.SeedTable(table); err != nil {
		return nil, err
	}
	var chain []string
	cur := table
	for {
		chain = append(chain, cur)
		ts := c.Schemes[cur]
		if ts.Method != Pref {
			return chain, nil
		}
		cur = ts.RefTable
	}
}

// A Cover is a table further down a PREF table's chain whose every row
// finds all of its partners under Pred on its own partition: the PREF
// table's copies follow the chain there. Pred's referencing columns are
// the PREF table's, its referenced columns are Table's.
type Cover struct {
	Table string
	Pred  Predicate
}

// Covers derives every PREF table's covers, composed hop by hop along its
// chain. Take T PREF on M by T.b = M.c and M PREF on L by M.d = L.a. When
// every column of c is in d and the schema declares a unique foreign key
// from L.a to M.d, each L row's M partner is stored wherever that L row is
// (Definition 1), and each T row whose b matches it is stored wherever
// that M row is. So T covers L by T.b = L.a|c, the L columns paired with c
// through M's predicate. The same step applies from L onward.
//
// A cover relies on the stored data honouring the foreign key: an L row
// with no M partner on its partition breaks it (check.VerifyStore reports
// one). It says nothing of T rows with no L partner, whose copies may sit
// where no L row is.
func (c *Config) Covers(s *catalog.Schema) map[string][]Cover {
	out := map[string][]Cover{}
	if s == nil {
		return out
	}
	for _, t := range c.Names() {
		ts := c.Schemes[t]
		if ts.Method != Pref {
			continue
		}
		pred, seen := ts.Pred, map[string]bool{t: true}
		for m := ts.RefTable; !seen[m]; {
			seen[m] = true
			ms := c.Schemes[m]
			if ms == nil || ms.Method != Pref || !hasUniqueFK(s, ms.RefTable, m, ms.Pred) {
				break
			}
			refd, ok := mapCols(pred.ReferencedCols, ms.Pred.ReferencingCols, ms.Pred.ReferencedCols)
			if !ok {
				break
			}
			pred = Predicate{ReferencingCols: ts.Pred.ReferencingCols, ReferencedCols: refd}
			out[t] = append(out[t], Cover{Table: ms.RefTable, Pred: pred})
			m = ms.RefTable
		}
	}
	return out
}

// hasUniqueFK reports whether s declares a foreign key from table l to a
// key of table m pairing exactly pred's columns: m's referencing columns
// with l's referenced ones.
func hasUniqueFK(s *catalog.Schema, l, m string, pred Predicate) bool {
	for _, fk := range s.FKs {
		if fk.FromTable == l && fk.ToTable == m && fk.ToIsUnique &&
			pred.Equal(Predicate{ReferencingCols: fk.ToCols, ReferencedCols: fk.FromCols}) {
			return true
		}
	}
	return false
}

// mapCols maps each of cols through the pairing from[i] -> to[i]; false
// when one of cols is not in from.
func mapCols(cols, from, to []string) ([]string, bool) {
	out := make([]string, len(cols))
	for i, col := range cols {
		j := slices.Index(from, col)
		if j < 0 {
			return nil, false
		}
		out[i] = to[j]
	}
	return out, true
}

// HashEquivalent reports whether a table's placement under this
// configuration is provably identical to hash partitioning on some of its
// own columns, and returns those columns. A hash table trivially is. A
// PREF table is hash-equivalent when its referenced table is
// hash-equivalent on columns that are a subset of the partitioning
// predicate's referenced columns: equal predicate values then imply a
// single partition, so every tuple has exactly one copy placed exactly
// where a hash on the paired referencing columns would put it (the
// partitioner places orphans accordingly). This is what makes the
// ORDERS-PREF-on-LINEITEM(hash orderkey) scheme of Figure 1 behave like a
// plain hash co-partitioning.
func (c *Config) HashEquivalent(table string) ([]string, bool) {
	seen := map[string]bool{}
	var walk func(string) ([]string, bool)
	walk = func(t string) ([]string, bool) {
		if seen[t] {
			return nil, false
		}
		seen[t] = true
		ts := c.Schemes[t]
		if ts == nil {
			return nil, false
		}
		switch ts.Method {
		case Hash:
			return ts.Cols, true
		case Pref:
			parentCols, ok := walk(ts.RefTable)
			if !ok {
				return nil, false
			}
			// Map each parent hash column through the predicate pairing.
			mapped := make([]string, 0, len(parentCols))
			for _, pc := range parentCols {
				found := false
				for i, rc := range ts.Pred.ReferencedCols {
					if rc == pc {
						mapped = append(mapped, ts.Pred.ReferencingCols[i])
						found = true
						break
					}
				}
				if !found {
					return nil, false
				}
			}
			return mapped, true
		default:
			return nil, false
		}
	}
	return walk(table)
}

// DupFree reports whether a table provably contains no PREF duplicates
// under this configuration: hash/round-robin/range tables trivially;
// a PREF table when it is hash-equivalent, or when its referenced table is
// itself duplicate-free and the referenced predicate columns contain that
// table's primary key (each referencing tuple then has at most one
// partitioning partner, hence exactly one stored copy). This is the
// Section 3.4 redundancy-free chain condition, proved statically.
func (c *Config) DupFree(s *catalog.Schema, table string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(t string) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		ts := c.Schemes[t]
		if ts == nil {
			return false
		}
		switch ts.Method {
		case Hash, RoundRobin, Range:
			return true
		case Pref:
			if _, ok := c.HashEquivalent(t); ok {
				return true
			}
			ref := s.Table(ts.RefTable)
			if ref == nil {
				return false
			}
			if !pkSubset(ref.PK, ts.Pred.ReferencedCols) {
				return false
			}
			return walk(ts.RefTable)
		default:
			return false
		}
	}
	return walk(table)
}

// pkSubset reports whether pk is non-empty and every pk column appears in
// cols (cols functionally determine at most one referenced row).
func pkSubset(pk, cols []string) bool {
	if len(pk) == 0 {
		return false
	}
	set := map[string]bool{}
	for _, c := range cols {
		set[c] = true
	}
	for _, p := range pk {
		if !set[p] {
			return false
		}
	}
	return true
}

// SchemeSignature returns a deep identity string for a table's scheme:
// the scheme itself plus, for PREF, the full chain down to the seed. Two
// tables partitioned identically in different configurations (e.g. in two
// WD merge groups) have equal signatures, which is the Section 4.3 rule
// for not duplicating a table in the final partitioned database.
func (c *Config) SchemeSignature(table string) (string, error) {
	chain, err := c.Chain(table)
	if err != nil {
		return "", err
	}
	parts := make([]string, 0, len(chain)+1)
	parts = append(parts, fmt.Sprintf("n=%d", c.NumPartitions))
	for _, t := range chain {
		parts = append(parts, c.Schemes[t].String())
	}
	return strings.Join(parts, ";"), nil
}

// Validate checks the configuration against a schema: every scheme's table
// and columns exist, PREF chains are acyclic and terminate at a seed, and
// the partition count is positive.
func (c *Config) Validate(s *catalog.Schema) error {
	if c.NumPartitions < 1 {
		return fmt.Errorf("partition: NumPartitions = %d, want >= 1", c.NumPartitions)
	}
	for name, ts := range c.Schemes {
		t := s.Table(name)
		if t == nil {
			return fmt.Errorf("partition: scheme for unknown table %s", name)
		}
		switch ts.Method {
		case Hash:
			if len(ts.Cols) == 0 {
				return fmt.Errorf("partition: table %s: HASH needs columns", name)
			}
			if _, err := t.ColIndexes(ts.Cols); err != nil {
				return err
			}
		case Range:
			if len(ts.Cols) != 1 {
				return fmt.Errorf("partition: table %s: RANGE needs exactly one column", name)
			}
			if _, err := t.ColIndexes(ts.Cols); err != nil {
				return err
			}
			if len(ts.Bounds) != c.NumPartitions-1 {
				return fmt.Errorf("partition: table %s: RANGE needs %d bounds, got %d",
					name, c.NumPartitions-1, len(ts.Bounds))
			}
			for i := 1; i < len(ts.Bounds); i++ {
				if ts.Bounds[i] <= ts.Bounds[i-1] {
					return fmt.Errorf("partition: table %s: RANGE bounds not ascending", name)
				}
			}
		case Pref:
			ref := s.Table(ts.RefTable)
			if ref == nil {
				return fmt.Errorf("partition: table %s: PREF references unknown table %s", name, ts.RefTable)
			}
			if len(ts.Pred.ReferencingCols) == 0 ||
				len(ts.Pred.ReferencingCols) != len(ts.Pred.ReferencedCols) {
				return fmt.Errorf("partition: table %s: bad PREF predicate", name)
			}
			if _, err := t.ColIndexes(ts.Pred.ReferencingCols); err != nil {
				return err
			}
			if _, err := ref.ColIndexes(ts.Pred.ReferencedCols); err != nil {
				return err
			}
			if _, err := c.SeedTable(name); err != nil {
				return err
			}
		case RoundRobin, Replicated:
			// nothing to check
		default:
			return fmt.Errorf("partition: table %s: unknown method %v", name, ts.Method)
		}
	}
	return nil
}

// Names returns the configured table names in sorted order: the iteration
// order for anything whose result must not depend on map order.
func (c *Config) Names() []string {
	names := make([]string, 0, len(c.Schemes))
	for n := range c.Schemes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Order returns the tables of the config in a partitioning order:
// every PREF-referenced table precedes its referencing tables.
func (c *Config) Order() ([]string, error) {
	names := c.Names()
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(n string) error {
		switch state[n] {
		case 1:
			return fmt.Errorf("partition: PREF cycle through table %s", n)
		case 2:
			return nil
		}
		state[n] = 1
		ts := c.Schemes[n]
		if ts == nil {
			return fmt.Errorf("partition: no scheme for table %s", n)
		}
		if ts.Method == Pref {
			if err := visit(ts.RefTable); err != nil {
				return err
			}
		}
		state[n] = 2
		order = append(order, n)
		return nil
	}
	for _, n := range names {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// String renders the configuration deterministically, one scheme per line.
func (c *Config) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "partitions=%d\n", c.NumPartitions)
	for _, n := range c.Names() {
		sb.WriteString("  " + c.Schemes[n].String() + "\n")
	}
	return sb.String()
}

// Clone returns a deep copy of the configuration.
func (c *Config) Clone() *Config {
	out := NewConfig(c.NumPartitions)
	for n, ts := range c.Schemes {
		cp := *ts
		cp.Cols = append([]string(nil), ts.Cols...)
		cp.Bounds = append([]int64(nil), ts.Bounds...)
		cp.Pred.ReferencingCols = append([]string(nil), ts.Pred.ReferencingCols...)
		cp.Pred.ReferencedCols = append([]string(nil), ts.Pred.ReferencedCols...)
		out.Schemes[n] = &cp
	}
	return out
}
