package plan

import (
	"fmt"
	"slices"
	"testing"
)

// TestPropOwnsItsColumnLists: a Prop's column lists change only through its
// setters. A caller that mutates the list it passed to a setter, or appends
// to and writes through a list a getter returned, leaves the Prop as it was.
func TestPropOwnsItsColumnLists(t *testing.T) {
	// Seventeen columns each: the copy a setter stores then has spare
	// capacity (allocation rounds 17 strings up to 18), so only a clipped
	// view keeps an append out of it.
	cols := func(f string) []string {
		out := make([]string, 17)
		for i := range out {
			out[i] = fmt.Sprintf(f, i)
		}
		return out
	}
	hash, dup := cols("o.c%d"), cols("t%d.__dup")
	wantHash, wantDup := slices.Clone(hash), slices.Clone(dup)

	p := &Prop{Parts: 4}
	p.SetHashCols(hash)
	p.SetDupCols(dup)
	hash[0], dup[0] = "x", "x"
	for _, view := range [][]string{p.HashCols(), p.DupCols()} {
		if cap(view) != len(view) {
			t.Fatalf("view %v has spare capacity %d: an append would write into the Prop", view, cap(view))
		}
		grown := append(view, "y")
		grown[0] = "y"
	}
	if !slices.Equal(p.HashCols(), wantHash) || !slices.Equal(p.DupCols(), wantDup) {
		t.Fatalf("Prop changed through a caller's slice: %v", p)
	}

	// A copy shares nothing a write can reach: setting its lists leaves the
	// original's alone.
	q := p.Clone()
	q.SetHashCols([]string{"z"})
	q.SetDupCols(nil)
	if !slices.Equal(p.HashCols(), wantHash) || !slices.Equal(p.DupCols(), wantDup) {
		t.Fatalf("Prop changed through its clone: %v", p)
	}

	// An empty list records none: the result is not hash-partitioned.
	p.SetHashCols([]string{})
	if p.HashCols() != nil || p.Method() != "NONE" {
		t.Fatalf("empty hash list: HashCols %#v, method %s; want nil, NONE", p.HashCols(), p.Method())
	}
}
