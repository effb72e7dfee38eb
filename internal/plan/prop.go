package plan

import (
	"fmt"
	"sort"
	"strings"

	"pref/internal/partition"
)

// PlacedEntry records that an intermediate result still carries a base
// table instance (under an alias) at exactly the placement its partitioning
// scheme dictates — the fact the co-location cases (2) and (3) of
// Section 2.2 need to verify.
type PlacedEntry struct {
	Table  string
	Scheme *partition.TableScheme
}

// Prop is the pair of rewrite properties of Section 2.2 attached to every
// intermediate result, generalized slightly:
//
//   - Part(o) is represented by Repl/Gathered/HashCols/Placed: HashCols
//     non-nil means hash-partitioned by those output columns; Placed lists
//     the table instances whose (possibly PREF) placement is intact, which
//     subsumes the paper's "Part(o).m = PREF" and lets several PREF schemes
//     be carried simultaneously (e.g. after a co-located join).
//   - Dup(o) is represented by DupCols: the live dup-index columns;
//     Dup(o)=1 iff the list is non-empty, and the disjunctive dup=0 filter
//     runs over exactly these columns.
//   - Orphans names the alias of a PREF table an aggregate summed in place
//     by its referencing columns (eager.go): a group whose rows have a
//     partner is whole on its partner's partition, but an orphan group may
//     be split across partitions. Only a Filter, a Project, a runtime
//     filter, or the inner join on that alias's partitioning predicate —
//     where the orphan groups find no partner and die — may consume it.
//
// A Prop owns its two column lists: only this file names their storage.
// SetHashCols/SetDupCols store a private copy, and HashCols/DupCols return
// clipped views, so an append through a view reallocates and no Prop can
// share an element with another Prop or a plan node.
type Prop struct {
	Parts    int
	Repl     bool
	Gathered bool
	hash     []string
	Placed   map[string]PlacedEntry
	dup      []string
	Orphans  string
	// Equiv records column equality classes established by inner equi
	// joins upstream (l.partkey ≡ ps.partkey after l⋈ps), so co-location
	// matching works regardless of which alias's column a later join
	// predicate mentions.
	Equiv [][]string
}

// HashCols returns the hash-partitioning columns, nil when the result is
// not hash-partitioned.
func (p *Prop) HashCols() []string { return p.hash[:len(p.hash):len(p.hash)] }

// DupCols returns the live dup-index columns.
func (p *Prop) DupCols() []string { return p.dup[:len(p.dup):len(p.dup)] }

// SetHashCols records a copy of cols as the hash-partitioning columns; an
// empty list records none.
func (p *Prop) SetHashCols(cols []string) { p.hash = append([]string(nil), cols...) }

// SetDupCols records a copy of cols as the live dup-index columns.
func (p *Prop) SetDupCols(cols []string) { p.dup = append([]string(nil), cols...) }

// EquivSame reports whether two column names are equal or known equal.
func (p *Prop) EquivSame(a, b string) bool {
	if a == b {
		return true
	}
	for _, cls := range p.Equiv {
		ina, inb := false, false
		for _, c := range cls {
			if c == a {
				ina = true
			}
			if c == b {
				inb = true
			}
		}
		if ina && inb {
			return true
		}
	}
	return false
}

// AddEquiv merges the equality a ≡ b into the classes.
func AddEquiv(classes [][]string, a, b string) [][]string {
	ai, bi := -1, -1
	for i, cls := range classes {
		for _, c := range cls {
			if c == a {
				ai = i
			}
			if c == b {
				bi = i
			}
		}
	}
	switch {
	case ai < 0 && bi < 0:
		return append(classes, []string{a, b})
	case ai >= 0 && bi < 0:
		classes[ai] = append(classes[ai], b)
	case ai < 0 && bi >= 0:
		classes[bi] = append(classes[bi], a)
	case ai != bi:
		classes[ai] = append(classes[ai], classes[bi]...)
		classes = append(classes[:bi], classes[bi+1:]...)
	}
	return classes
}

// UnionEquiv concatenates two inputs' classes (their column namespaces
// are disjoint before a join).
func UnionEquiv(a, b [][]string) [][]string {
	out := make([][]string, 0, len(a)+len(b))
	for _, c := range a {
		out = append(out, append([]string(nil), c...))
	}
	for _, c := range b {
		out = append(out, append([]string(nil), c...))
	}
	return out
}

// Dup reports the paper's Dup(o) bit.
func (p *Prop) Dup() bool { return len(p.dup) > 0 }

// Method reports the paper's Part(o).m classification for inspection.
func (p *Prop) Method() string {
	switch {
	case p.Repl:
		return "REPL"
	case p.Gathered:
		return "GATHERED"
	case p.hash != nil:
		return "HASH"
	case len(p.Placed) > 0:
		return "PREF"
	default:
		return "NONE"
	}
}

func (p *Prop) String() string {
	var placed []string
	for a, e := range p.Placed {
		placed = append(placed, a+":"+e.Table)
	}
	sort.Strings(placed)
	orphans := ""
	if p.Orphans != "" {
		orphans = " orphans=" + p.Orphans
	}
	return fmt.Sprintf("{%s hash=%v placed=[%s] dup=%v%s parts=%d}",
		p.Method(), p.hash, strings.Join(placed, ","), p.dup, orphans, p.Parts)
}

// Clone returns a copy that shares no map or class list with the receiver,
// so mutating the copy's Placed/Equiv cannot corrupt another operator's
// recorded properties. The column lists are shared: no one writes them.
func (p *Prop) Clone() *Prop {
	q := *p
	q.Placed = make(map[string]PlacedEntry, len(p.Placed))
	for k, v := range p.Placed {
		q.Placed[k] = v
	}
	q.Equiv = UnionEquiv(p.Equiv, nil)
	return &q
}

func unionPlaced(a, b map[string]PlacedEntry) map[string]PlacedEntry {
	out := make(map[string]PlacedEntry, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// colPairsEqual reports whether the pairings (a[i], b[i]) form the same set
// of pairs as (c[i], d[i]) — conjunct order is irrelevant, the pairing is
// not.
func colPairsEqual(a, b, c, d []string) bool {
	if len(a) != len(b) || len(c) != len(d) || len(a) != len(c) {
		return false
	}
	mk := func(x, y []string) []string {
		out := make([]string, len(x))
		for i := range x {
			out[i] = x[i] + "\x00" + y[i]
		}
		sort.Strings(out)
		return out
	}
	p, q := mk(a, b), mk(c, d)
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

func qualifyAll(alias string, cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = Qualify(alias, c)
	}
	return out
}
